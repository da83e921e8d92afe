package stats

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// maxField is the one counter Add keeps as a maximum.
const maxField = "SubspaceCandidatesMax"

// numbered returns a snapshot whose i-th field holds base*(i+1), so
// every counter carries a distinct value.
func numbered(base int64) Snapshot {
	var s Snapshot
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(base * int64(i+1))
	}
	return s
}

// TestEachYieldsEveryField walks Snapshot's fields by reflection: Each
// must yield each field's JSON tag and value, in declaration order, so a
// counter added to the struct cannot be left out of the exporters.
func TestEachYieldsEveryField(t *testing.T) {
	s := numbered(3)
	typ := reflect.TypeOf(s)
	i := 0
	s.Each(func(name string, value int64) {
		if i >= typ.NumField() {
			t.Fatalf("Each yielded %q past the struct's %d fields", name, typ.NumField())
		}
		f := typ.Field(i)
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name != tag {
			t.Errorf("Each name %d = %q, field %s is tagged %q", i, name, f.Name, tag)
		}
		if want := reflect.ValueOf(s).Field(i).Int(); value != want {
			t.Errorf("Each %s = %d, field holds %d", name, value, want)
		}
		i++
	})
	if i != typ.NumField() {
		t.Errorf("Each visited %d counters, Snapshot has %d fields", i, typ.NumField())
	}
}

// TestSnapshotAdd walks Snapshot's fields by reflection: Add must sum
// each one, and take the larger for SubspaceCandidatesMax, whichever
// operand holds it.
func TestSnapshotAdd(t *testing.T) {
	a, b := numbered(2), numbered(5)
	for _, pair := range [][2]Snapshot{{a, b}, {b, a}} {
		got := reflect.ValueOf(pair[0].Add(pair[1]))
		typ := got.Type()
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			x, y := reflect.ValueOf(pair[0]).Field(i).Int(), reflect.ValueOf(pair[1]).Field(i).Int()
			want := x + y
			if name == maxField {
				want = max(x, y)
			}
			if v := got.Field(i).Int(); v != want {
				t.Errorf("Add %s = %d, want %d", name, v, want)
			}
		}
	}
}

// TestSubspaceCandidatesMax: a lower delta does not lower the maximum
// Stats keeps.
func TestSubspaceCandidatesMax(t *testing.T) {
	var s Stats
	for _, n := range []int64{10, 4, 25, 0} {
		s.Add(Snapshot{SubspaceCandidatesMax: n})
	}
	if got := s.Snapshot().SubspaceCandidatesMax; got != 25 {
		t.Errorf("SubspaceCandidatesMax = %d, want 25", got)
	}
}

// TestStatsConcurrentAdd: workers sharing one Stats must lose no delta.
// The snapshot equals the sequential Snapshot.Add fold of the same
// deltas; the suite runs under -race.
func TestStatsConcurrentAdd(t *testing.T) {
	const workers, units = 8, 200
	var st Stats
	var want Snapshot
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		for u := 0; u < units; u++ {
			want = want.Add(numbered(int64(w*units + u)))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := 0; u < units; u++ {
				st.Add(numbered(int64(w*units + u)))
			}
		}()
	}
	wg.Wait()
	if got := st.Snapshot(); got != want {
		t.Errorf("concurrent Add = %+v, want %+v", got, want)
	}
	if got, top := st.Snapshot().SubspaceCandidatesMax, numbered(workers*units-1).SubspaceCandidatesMax; got != top {
		t.Errorf("SubspaceCandidatesMax = %d, want the largest delta's %d", got, top)
	}
}

func TestNilStatsSafe(t *testing.T) {
	var s *Stats
	s.Add(Snapshot{Subspaces: 1, Offered: 1})
	if snap := s.Snapshot(); snap != (Snapshot{}) {
		t.Errorf("nil Stats snapshot = %+v, want zero", snap)
	}
}
