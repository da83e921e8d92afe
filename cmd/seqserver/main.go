// Command seqserver serves example-based spatial search over HTTP — the
// "map service" surface of the paper's Figure 2.
//
// Usage:
//
//	seqserver -data gaode.csv -addr :8080
//	seqserver -synth gaode -n 100000 -addr :8080   # no file needed
//	seqserver -synth gaode -addr 127.0.0.1:0 -pprof -log-level debug
//
// Endpoints: GET /healthz, /stats, /categories, /metrics, POST /search,
// /snap, GET /debug/queries (+ /debug/queries/capture), GET
// /debug/trace/{requestID} (Chrome trace export of a retained slow
// query's span tree, ?format=html for an inline timeline), and (with
// -pprof) GET /debug/pprof/* (see internal/server).
//
// The query flight recorder is always on: every completed query leaves a
// record in a bounded ring, the slowest per window are tail-sampled, and
// queries over the adaptive p99 threshold (or the -flight-threshold
// floor) emit a structured slow-query log line. /debug/queries/capture
// exports retained slow queries for `seqbench -exp replay`. Tune with
// -flight-buffer, -flight-window, -flight-keep and -flight-threshold.
//
// Logs are structured JSON on stderr, one object per line; the
// "listening" record carries the bound address (useful with ":0").
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"spatialseq/internal/core"
	"spatialseq/internal/dataset"
	"spatialseq/internal/obs"
	"spatialseq/internal/obs/flight"
	"spatialseq/internal/server"
	"spatialseq/internal/synth"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "seqserver:", err)
		os.Exit(1)
	}
}

// config is the parsed command line.
type config struct {
	dataPath    string
	synthFamily string
	n           int
	seed        int64
	addr        string
	timeout     time.Duration
	cacheSize   int
	logLevel    string
	pprof       bool

	flightBuffer    int
	flightWindow    time.Duration
	flightKeep      int
	flightThreshold time.Duration
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("seqserver", flag.ContinueOnError)
	cfg := &config{}
	fs.StringVar(&cfg.dataPath, "data", "", "dataset path (CSV or binary)")
	fs.StringVar(&cfg.synthFamily, "synth", "", "generate a synthetic dataset instead: yelp or gaode")
	fs.IntVar(&cfg.n, "n", 50000, "synthetic dataset size")
	fs.Int64Var(&cfg.seed, "seed", 1, "synthetic dataset seed")
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address (use :0 for an ephemeral port)")
	fs.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-query timeout")
	fs.IntVar(&cfg.cacheSize, "cache", 0, "query cache capacity in entries (0 = default)")
	fs.StringVar(&cfg.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.BoolVar(&cfg.pprof, "pprof", false, "expose /debug/pprof/ profiling endpoints")
	fs.IntVar(&cfg.flightBuffer, "flight-buffer", 0, "flight recorder ring size (0 = default 256, negative disables the ring)")
	fs.DurationVar(&cfg.flightWindow, "flight-window", 0, "flight recorder tail-sampling window (0 = default 1m)")
	fs.IntVar(&cfg.flightKeep, "flight-keep", 0, "slowest queries retained per window (0 = default 16, negative disables)")
	fs.DurationVar(&cfg.flightThreshold, "flight-threshold", 0, "slow-query threshold floor (0 = adaptive p99 only)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return cfg, nil
}

func parseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
	}
}

// loadDataset resolves the dataset source from the config.
func loadDataset(cfg *config) (*dataset.Dataset, error) {
	switch {
	case cfg.dataPath != "":
		return dataset.ReadAnyFile(cfg.dataPath)
	case cfg.synthFamily == "yelp":
		return synth.Generate(synth.YelpLike(cfg.n, cfg.seed))
	case cfg.synthFamily == "gaode":
		return synth.Generate(synth.GaodeLike(cfg.n, cfg.seed))
	case cfg.synthFamily != "":
		return nil, fmt.Errorf("unknown synthetic family %q (want yelp or gaode)", cfg.synthFamily)
	default:
		return nil, errors.New("one of -data or -synth is required")
	}
}

// datasetInfo derives the provenance stamped into flight-recorder
// capture exports from the dataset flags, so `seqbench -exp replay` can
// rebuild the exact corpus the captured queries ran against.
func datasetInfo(cfg *config) flight.DatasetInfo {
	if cfg.dataPath != "" {
		return flight.DatasetInfo{Kind: "file", Path: cfg.dataPath}
	}
	return flight.DatasetInfo{Kind: "synth", Family: cfg.synthFamily, N: cfg.n, Seed: cfg.seed}
}

func run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	level, err := parseLevel(cfg.logLevel)
	if err != nil {
		return err
	}
	logger := obs.NewLogger(os.Stderr, level)
	ds, err := loadDataset(cfg)
	if err != nil {
		return err
	}
	logger.Info("indexing", "objects", ds.Len(), "categories", ds.NumCategories())
	eng := core.NewEngine(ds)
	rec := flight.New(flight.Config{
		RingSize:    cfg.flightBuffer,
		Window:      cfg.flightWindow,
		KeepSlowest: cfg.flightKeep,
		Floor:       cfg.flightThreshold,
		Logger:      logger,
		Dataset:     datasetInfo(cfg),
	})
	srv := server.NewWith(eng, server.Config{
		Timeout:     cfg.timeout,
		CacheSize:   cfg.cacheSize,
		Logger:      logger,
		EnablePprof: cfg.pprof,
		Flight:      rec,
	})
	// Listen before serving so the actual bound address (":0" resolves
	// to an ephemeral port) can be logged for scripts to pick up.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	logger.Info("listening", "addr", ln.Addr().String(), "pprof", cfg.pprof)
	httpServer := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return httpServer.Serve(ln)
}
