package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrentObserveAndRender hammers one registry from
// writer goroutines (counters, gauges, histograms, new series) while
// renderers run concurrently — the race-detector gate for the /metrics
// path, where scrapes overlap live traffic.
func TestRegistryConcurrentObserveAndRender(t *testing.T) {
	r := NewRegistry()
	reqs := r.Counter("req_total", "requests", "endpoint", "code")
	lat := r.Histogram("lat_seconds", "latency", []float64{0.001, 0.01, 0.1, 1}, "algo")
	inflight := r.Gauge("in_flight", "in flight").With()
	r.GaugeFunc("sampled", "sampled", func() float64 { return float64(time.Now().Nanosecond()) })

	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			algo := fmt.Sprintf("algo%d", w%3)
			for i := 0; i < perWriter; i++ {
				inflight.Inc()
				reqs.With("/search", "200").Inc()
				reqs.With(fmt.Sprintf("/ep%d", i%5), "404").Add(1)
				lat.With(algo).Observe(float64(i%100) / 1000)
				inflight.Dec()
			}
		}(w)
	}
	stop := make(chan struct{})
	var renderWG sync.WaitGroup
	for g := 0; g < 2; g++ {
		renderWG.Add(1)
		go func() {
			defer renderWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := r.WriteText(io.Discard); err != nil {
					t.Errorf("render during writes: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	renderWG.Wait()

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`req_total{endpoint="/search",code="200"} %d`, writers*perWriter)
	if !strings.Contains(b.String(), want) {
		t.Errorf("final render missing %q:\n%s", want, b.String())
	}
	if got := inflight.Value(); got != 0 {
		t.Errorf("in-flight gauge = %g after balanced inc/dec", got)
	}
}
