package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"spatialseq/internal/algo/hsp"
	"spatialseq/internal/query"
	"spatialseq/internal/testutil"
)

// TestConcurrentReuse: two goroutines search queries of different tuple
// sizes through one engine at the same time, by HSP on one worker and
// on two and by LORA on one, so the searches' pools pass prepared
// states, searchers and similarity contexts from one goroutine's query
// to the other's. Every answer must equal the one the query got alone,
// and the race detector must find nothing (scripts/check.sh runs the
// suite under -race).
func TestConcurrentReuse(t *testing.T) {
	ds, qs := testutil.ReuseQueries()
	eng := NewEngine(ds)
	ctx := context.Background()
	runs := []struct {
		algo Algorithm
		opt  Options
	}{{HSP, Options{}}, {HSP, Options{HSP: hsp.Options{Parallelism: 2}}}, {LORA, Options{}}}
	want := make([][][]ResultTuple, len(runs))
	for ri, r := range runs {
		for _, q := range qs {
			qq := *q
			res, err := eng.Search(ctx, &qq, r.algo, r.opt)
			if err != nil {
				t.Fatal(err)
			}
			want[ri] = append(want[ri], res.Tuples)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		own := make([]query.Query, len(qs))
		for i, q := range qs {
			own[i] = *q
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				// The goroutines stay two queries apart: tuple sizes
				// 2 and 3, 5 and 4, and so on.
				qi, ri := (i+2*g)%len(qs), i%len(runs)
				res, err := eng.Search(ctx, &own[qi], runs[ri].algo, runs[ri].opt)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res.Tuples, want[ri][qi]) {
					t.Errorf("goroutine %d, %v on query %d (m=%d): %v; alone %v", g, runs[ri].algo, qi, own[qi].Example.M(), res.Tuples, want[ri][qi])
				}
			}
		}()
	}
	wg.Wait()
}
