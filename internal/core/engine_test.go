package core

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/query"
	"spatialseq/internal/testutil"
)

func setup(t *testing.T, n int) (*Engine, *query.Query) {
	t.Helper()
	rng := rand.New(rand.NewSource(81))
	ds := testutil.RandDataset(rng, n, 3, 4, 100)
	q := testutil.RandQuery(rng, ds, 3, 25, query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10})
	return NewEngine(ds), q
}

func TestSearchAllAlgorithms(t *testing.T) {
	eng, q := setup(t, 150)
	ctx := context.Background()
	var exactSims []float64
	for _, algo := range []Algorithm{BruteForce, DFSPrune, HSP, LORA} {
		qq := *q
		res, err := eng.Search(ctx, &qq, algo, Options{})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.Algorithm != algo {
			t.Errorf("result algorithm = %v, want %v", res.Algorithm, algo)
		}
		if res.Elapsed <= 0 {
			t.Errorf("%v: non-positive elapsed", algo)
		}
		sims := res.Similarities()
		for i := 1; i < len(sims); i++ {
			if sims[i] > sims[i-1] {
				t.Errorf("%v: results not sorted best-first", algo)
			}
		}
		if algo == BruteForce {
			exactSims = sims
			continue
		}
		if algo == DFSPrune || algo == HSP {
			if len(sims) != len(exactSims) {
				t.Fatalf("%v: %d results, brute %d", algo, len(sims), len(exactSims))
			}
			for i := range sims {
				if math.Abs(sims[i]-exactSims[i]) > 1e-9 {
					t.Errorf("%v: rank %d sim %g != exact %g", algo, i, sims[i], exactSims[i])
				}
			}
		}
	}
}

func TestAutoSelection(t *testing.T) {
	// Auto decides on candidate volume (summed matching-category sizes),
	// not raw dataset size.
	engSmall, qs := setup(t, 100)
	res, err := engSmall.Search(context.Background(), qs, Auto, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != HSP {
		t.Errorf("small candidate volume auto = %v, want HSP", res.Algorithm)
	}
	// m=3 over 3 balanced categories: candidate volume ≈ n, so exceed the
	// limit comfortably.
	engLarge, ql := setup(t, autoHSPLimit*3/2)
	res, err = engLarge.Search(context.Background(), ql, Auto, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != LORA {
		t.Errorf("large candidate volume auto = %v, want LORA", res.Algorithm)
	}
}

func TestSearchValidates(t *testing.T) {
	eng, q := setup(t, 100)
	bad := *q
	bad.Params.Alpha = 7
	if _, err := eng.Search(context.Background(), &bad, HSP, Options{}); err == nil {
		t.Error("invalid alpha should be rejected")
	}
	bad2 := *q
	bad2.Example.Categories = nil
	if _, err := eng.Search(context.Background(), &bad2, HSP, Options{}); err == nil {
		t.Error("empty example should be rejected")
	}
}

func TestSearchUnknownAlgorithm(t *testing.T) {
	eng, q := setup(t, 100)
	if _, err := eng.Search(context.Background(), q, Algorithm(99), Options{}); err == nil {
		t.Error("unknown algorithm should be rejected")
	}
}

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]Algorithm{
		"auto": Auto, "": Auto,
		"brute":     BruteForce,
		"dfs-prune": DFSPrune, "dfsprune": DFSPrune, "dfs": DFSPrune,
		"hsp":  HSP,
		"lora": LORA,
	}
	for s, want := range cases {
		got, err := ParseAlgorithm(s)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseAlgorithm("zzz"); err == nil {
		t.Error("unknown name should error")
	}
}

func TestAlgorithmString(t *testing.T) {
	for _, a := range []Algorithm{Auto, BruteForce, DFSPrune, HSP, LORA} {
		if a.String() == "" {
			t.Errorf("missing String for %d", int(a))
		}
		// round trip through the parser (Auto parses from "auto")
		if back, err := ParseAlgorithm(a.String()); err != nil || back != a {
			t.Errorf("round trip failed for %v", a)
		}
	}
}

func TestConcurrentSearches(t *testing.T) {
	eng, q := setup(t, 500)
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			qq := *q
			_, err := eng.Search(context.Background(), &qq, LORA, Options{})
			errs <- err
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSearchTimeout(t *testing.T) {
	eng, q := setup(t, 5000)
	qq := *q
	qq.Params.Beta = 9
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	if _, err := eng.Search(ctx, &qq, DFSPrune, Options{}); err == nil {
		t.Error("expired context should abort")
	}
}

// TestSnapMatchesBrute holds Snap to a brute ranking by distance and
// then position, on a tie-grid corpus whose objects share locations, with
// and without a category filter.
func TestSnapMatchesBrute(t *testing.T) {
	ds := testutil.TieGridQueries()[0].DS
	eng := NewEngine(ds)
	rng := rand.New(rand.NewSource(82))
	for i := 0; i < 20; i++ {
		p := geo.Point{X: float64(rng.Intn(27)) - 1, Y: rng.Float64() * 25}
		for _, cat := range []dataset.CategoryID{dataset.NoCategory, 0, 1} {
			var all []SnapResult
			for pos := 0; pos < ds.Len(); pos++ {
				if cat == dataset.NoCategory || ds.Category(pos) == cat {
					all = append(all, SnapResult{Position: int32(pos), Dist: ds.Loc(pos).Dist(p)})
				}
			}
			slices.SortFunc(all, func(a, b SnapResult) int {
				return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Position, b.Position))
			})
			for _, k := range []int{1, 7, 40} {
				if got := eng.Snap(p, cat, k); !slices.Equal(got, all[:k]) {
					t.Fatalf("snap %v category %d k %d: %v, brute %v", p, cat, k, got, all[:k])
				}
			}
		}
	}
}
