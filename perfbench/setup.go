package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"spatialseq/internal/core"
	"spatialseq/internal/dataset"
	"spatialseq/internal/server"
)

// setupReps is how often a run times set-up; setup_s is the median.
// One timing of a 0.1-0.3 s set-up moves by 10-15 % with the host. The
// median of 7 still spread by 12-38 % (IQR over ten runs) between
// processes; 25 cost about 6 s on the 200k corpus.
const setupReps = 25

// stack is one ready system: the loaded dataset, its engine and, on the
// HTTP workload, the server with its listening socket.
type stack struct {
	ds  *dataset.Dataset
	eng *core.Engine
	srv *server.Server
	ln  net.Listener
}

func (s *stack) close() {
	if s != nil && s.ln != nil {
		s.ln.Close()
	}
}

// setupTimes are the per-repetition set-up timings and the live heap the
// last set-up added.
type setupTimes struct {
	total, load, index, serve []float64 // seconds
	heapBytes                 uint64
}

// buildStack goes from the dataset file on disk to a ready system:
// dataset.ReadAnyFile, core.NewEngine and, with withServer,
// server.NewWith and a listening socket. It returns the time spent in
// each step.
func buildStack(path string, withServer bool) (st *stack, load, index, serve time.Duration, err error) {
	t0 := time.Now()
	ds, err := dataset.ReadAnyFile(path)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("load dataset: %w", err)
	}
	t1 := time.Now()
	st = &stack{ds: ds, eng: core.NewEngine(ds)}
	t2 := time.Now()
	if withServer {
		st.srv = server.NewWith(st.eng, server.Config{})
		st.ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, 0, 0, 0, fmt.Errorf("listen: %w", err)
		}
	}
	return st, t1.Sub(t0), t2.Sub(t1), time.Since(t2), nil
}

// setUp builds the system setupReps times and keeps the last one.
func setUp(path string, withServer bool) (*stack, setupTimes, error) {
	var (
		times setupTimes
		st    *stack
	)
	for i := 0; i < setupReps; i++ {
		st.close()
		st = nil
		before := liveHeap()
		next, load, index, serve, err := buildStack(path, withServer)
		if err != nil {
			return nil, times, err
		}
		st = next
		times.load = append(times.load, load.Seconds())
		times.index = append(times.index, index.Seconds())
		times.serve = append(times.serve, serve.Seconds())
		times.total = append(times.total, (load + index + serve).Seconds())
		if i == setupReps-1 {
			times.heapBytes = liveHeap() - before
		}
	}
	return st, times, nil
}

// heapSplit is the live heap the dataset and the index each add, from
// one extra set-up with a forced GC between the steps.
func heapSplit(path string) (dataBytes, indexBytes uint64, err error) {
	h0 := liveHeap()
	ds, err := dataset.ReadAnyFile(path)
	if err != nil {
		return 0, 0, err
	}
	h1 := liveHeap()
	eng := core.NewEngine(ds)
	h2 := liveHeap()
	runtime.KeepAlive(eng)
	return h1 - h0, h2 - h1, nil
}

// liveHeap forces a GC and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
