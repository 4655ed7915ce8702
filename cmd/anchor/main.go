// Command anchor is the CLI for the anchor library: train embedding
// snapshot pairs, compress them, compute embedding distance measures,
// measure end-to-end downstream instability, query trained snapshots, and
// serve it all over HTTP. Every subcommand except measure (which works on
// .bin files saved by train, in the artifact store's binary format) runs
// on the context-aware Service API, so trained embeddings are cached in
// the artifact store (pass -cache-dir to make the cache survive across
// invocations and share it with `anchor serve`).
//
// Usage:
//
//	anchor train     -algo cbow -dim 64 -seed 1 -year 2017 -out emb17.bin
//	anchor measure   -a emb17.bin -b emb18.bin -bits 4 -top 300
//	anchor stability -algo mc -dim 32 -bits 4 -seed 1 -task sst2
//	anchor select    -algo mc -dims 8,16,32 -bits 1,4,32 -budget 128
//	anchor query     -algo mc -dim 32 -bits 8 -words fezadis,dovoles -k 5 -delta
//	anchor experiment -id fig1 -config small
//	anchor experiment -all -config bench -workers 4
//	anchor experiment -id fig1 -config bench -cpuprofile cpu.out -memprofile mem.out
//	anchor serve     -addr :8080 -config bench -cache-dir .anchor-cache -serving-budget 256
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"anchor"
	"anchor/internal/serve"
	"anchor/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "train":
		err = cmdTrain(ctx, os.Args[2:])
	case "measure":
		err = cmdMeasure(ctx, os.Args[2:])
	case "stability":
		err = cmdStability(ctx, os.Args[2:])
	case "select":
		err = cmdSelect(ctx, os.Args[2:])
	case "query":
		err = cmdQuery(ctx, os.Args[2:])
	case "experiment":
		err = cmdExperiment(ctx, os.Args[2:])
	case "serve":
		err = cmdServe(ctx, os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "anchor: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "anchor:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `anchor <command> [flags]

commands:
  train       train one embedding snapshot and save it as a .bin artifact
  measure     compute all embedding distance measures between two saved .bin embeddings
  stability   end-to-end downstream instability for one configuration
  select      rank a dim x precision grid by a measure under a memory budget
  query       query a trained snapshot: vectors, nearest neighbors, neighbor delta
  experiment  reproduce paper tables/figures: one by -id, or -all (-list prints the ids)
  serve       serve the API over HTTP (see docs/HTTP_API.md for the /v1 endpoints)`)
}

// serviceFlags are the flags shared by every Service-backed subcommand.
type serviceFlags struct {
	config   *string
	workers  *int
	cacheDir *string
	verbose  *bool
	// progress receives the -v progress stages.
	progress *log.Logger
}

func addServiceFlags(fs *flag.FlagSet, defaultConfig string) serviceFlags {
	return serviceFlags{
		config:   fs.String("config", defaultConfig, "config scale: small, bench, repro"),
		workers:  fs.Int("workers", 0, "goroutine budget (0 = all CPUs; results are identical for any value)"),
		cacheDir: fs.String("cache-dir", "", "persist trained embeddings to this directory (reused across runs)"),
		verbose:  fs.Bool("v", false, "log progress stages"),
		progress: log.New(os.Stderr, "anchor: ", 0),
	}
}

func (f serviceFlags) newService(extra ...anchor.ServiceOption) (*anchor.Service, error) {
	cfg, err := configByName(*f.config)
	if err != nil {
		return nil, err
	}
	opts := []anchor.ServiceOption{
		anchor.WithConfig(cfg),
		anchor.WithWorkers(*f.workers),
		anchor.WithCacheDir(*f.cacheDir),
	}
	if *f.verbose {
		opts = append(opts, anchor.WithProgress(func(stage string) { f.progress.Println(stage) }))
	}
	return anchor.NewService(append(opts, extra...)...)
}

func configByName(name string) (anchor.ExperimentConfig, error) {
	switch name {
	case "small":
		return anchor.SmallExperimentConfig(), nil
	case "bench":
		return anchor.BenchExperimentConfig(), nil
	case "repro":
		return anchor.ReproExperimentConfig(), nil
	}
	return anchor.ExperimentConfig{}, fmt.Errorf("unknown config %q (small, bench, repro)", name)
}

func cmdTrain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	algo := fs.String("algo", "cbow", "embedding algorithm: "+strings.Join(anchor.Algorithms(), ", "))
	dim := fs.Int("dim", 64, "embedding dimension")
	seed := fs.Int64("seed", 1, "training seed")
	year := fs.Int("year", 2017, "corpus snapshot year (2017 or 2018)")
	out := fs.String("out", "emb.bin", "output path (binary artifact format)")
	sf := addServiceFlags(fs, "repro")
	fs.Parse(args)

	svc, err := sf.newService()
	if err != nil {
		return err
	}
	fmt.Printf("training %s dim=%d seed=%d (wiki'%d)...\n", *algo, *dim, *seed, *year%100)
	e, err := svc.Train(ctx, *algo, *year, *dim, *seed)
	if err != nil {
		return err
	}
	if err := store.SaveBinaryFile(*out, e, store.PickKind(e)); err != nil {
		return err
	}
	fmt.Printf("saved %s (%d x %d) to %s\n", e.Meta, e.Rows(), e.Dim(), *out)
	return nil
}

func cmdMeasure(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("measure", flag.ExitOnError)
	aPath := fs.String("a", "", "first embedding (.bin from train)")
	bPath := fs.String("b", "", "second embedding (.bin from train)")
	bits := fs.Int("bits", 32, "quantize both to this precision first")
	top := fs.Int("top", 300, "compute measures over the top-N frequent words")
	workers := fs.Int("workers", 0, "measure goroutines (0 = all CPUs; result is identical for any value)")
	fs.Parse(args)
	if *aPath == "" || *bPath == "" {
		return fmt.Errorf("measure requires -a and -b")
	}
	if *top < 1 || *bits < 1 {
		return fmt.Errorf("-top and -bits must be at least 1, got -top %d -bits %d", *top, *bits)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	a, err := store.LoadBinaryFile(*aPath)
	if err != nil {
		return err
	}
	b, err := store.LoadBinaryFile(*bPath)
	if err != nil {
		return err
	}
	if a.Rows() != b.Rows() || a.Dim() != b.Dim() {
		return fmt.Errorf("-a is %d x %d but -b is %d x %d; measure needs two embeddings of one shape",
			a.Rows(), a.Dim(), b.Rows(), b.Dim())
	}
	// The top-word ids index the default corpus's vocabulary, so both
	// files must have been trained on it (train's default -config repro).
	c17 := anchor.GenerateCorpus(anchor.DefaultCorpusConfig(), anchor.Wiki17)
	if !slices.Equal(a.Words, c17.Vocab.Words) || !slices.Equal(b.Words, c17.Vocab.Words) {
		return fmt.Errorf("-a and -b must both have the default corpus's %d-word vocabulary; train them with -config repro",
			c17.Vocab.Size())
	}
	// Section 3 protocol: align, tag, quantize with a shared clip.
	qa, qb := anchor.AlignQuantize(a, b, *bits)

	// Anchors: the full-precision pair itself (callers with a dimension
	// sweep should pass their largest pair; the CLI uses what it has).
	ids := c17.TopWords(*top)
	sa, sb := qa.SubRows(ids), qb.SubRows(ids)
	ea, eb := a.SubRows(ids), b.SubRows(ids)
	for _, m := range anchor.AllMeasuresWorkers(ea, eb, *workers) {
		fmt.Printf("%-24s %.6f\n", m.Name(), m.Distance(sa, sb))
	}
	return nil
}

func cmdStability(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("stability", flag.ExitOnError)
	algo := fs.String("algo", "mc", "embedding algorithm")
	dim := fs.Int("dim", 32, "embedding dimension")
	bits := fs.Int("bits", 32, "precision in bits")
	seed := fs.Int64("seed", 1, "seed for embeddings and downstream model")
	task := fs.String("task", "sst2", "downstream task: sst2, mr, subj, mpqa, conll2003")
	sf := addServiceFlags(fs, "repro")
	fs.Parse(args)

	svc, err := sf.newService()
	if err != nil {
		return err
	}
	fmt.Printf("training %s dim=%d on Wiki'17 and Wiki'18...\n", *algo, *dim)
	rep, err := svc.Stability(ctx, *algo, *task, *dim, *bits, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("task=%s algo=%s dim=%d bits=%d memory=%d bits/word\n",
		rep.Task, rep.Algo, rep.Dim, rep.Precision, rep.MemoryBits)
	fmt.Printf("downstream prediction disagreement: %.2f%%\n", rep.Disagreement)
	return nil
}

// parseIntList parses "8,16,32" into ints.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad list entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func cmdSelect(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("select", flag.ExitOnError)
	algo := fs.String("algo", "mc", "embedding algorithm")
	dims := fs.String("dims", "8,16,32", "candidate dimensions (comma-separated)")
	bitsList := fs.String("bits", "1,4,32", "candidate precisions (comma-separated)")
	seed := fs.Int64("seed", 1, "training seed")
	measure := fs.String("measure", "eigenspace-instability", "ranking measure")
	budget := fs.Int("budget", 0, "memory budget in bits/word (0 = unlimited)")
	sf := addServiceFlags(fs, "bench")
	fs.Parse(args)

	ds, err := parseIntList(*dims)
	if err != nil {
		return err
	}
	bs, err := parseIntList(*bitsList)
	if err != nil {
		return err
	}
	svc, err := sf.newService()
	if err != nil {
		return err
	}
	rep, err := svc.Select(ctx, anchor.SelectRequest{
		Algo: *algo, Dims: ds, Precisions: bs, Seed: *seed,
		Measure: *measure, BudgetBits: *budget,
	})
	if err != nil {
		return err
	}
	fmt.Printf("ranking by %s (ascending = predicted more stable):\n", rep.Measure)
	fmt.Println("  dim  bits  memory  value       in-budget")
	for _, c := range rep.Candidates {
		mark := " "
		if c.WithinBudget {
			mark = "*"
		}
		fmt.Printf("  %3d  %4d  %6d  %.6f  %s\n", c.Dim, c.Precision, c.MemoryBits, c.Value, mark)
	}
	if rep.Best != nil {
		fmt.Printf("selected: dim=%d bits=%d (%d bits/word)\n", rep.Best.Dim, rep.Best.Precision, rep.Best.MemoryBits)
	} else {
		fmt.Println("no candidate satisfies the budget")
	}
	return nil
}

func cmdQuery(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	algo := fs.String("algo", "mc", "embedding algorithm")
	dim := fs.Int("dim", 32, "embedding dimension")
	bits := fs.Int("bits", 0, "served precision in bits (1..32; 0 = full precision)")
	seed := fs.Int64("seed", 1, "training seed")
	year := fs.Int("year", 2017, "corpus snapshot year (2017 or 2018; ignored by -delta)")
	wordsFlag := fs.String("words", "", "comma-separated query words (required)")
	k := fs.Int("k", 5, "neighborhood size")
	vectors := fs.Bool("vectors", false, "print raw vectors instead of neighbors")
	delta := fs.Bool("delta", false, "compare neighbors between Wiki'17 and Wiki'18 (the paper's instability probe)")
	sf := addServiceFlags(fs, "bench")
	fs.Parse(args)

	var words []string
	for _, part := range strings.Split(*wordsFlag, ",") {
		if part = strings.TrimSpace(part); part != "" {
			words = append(words, part)
		}
	}
	if len(words) == 0 {
		return fmt.Errorf("query requires -words")
	}
	svc, err := sf.newService()
	if err != nil {
		return err
	}
	req := anchor.QueryRequest{Algo: *algo, Words: words, Dim: *dim, K: *k, Year: *year, Bits: *bits, Seed: *seed}
	switch {
	case *vectors:
		rep, err := svc.Query(ctx, req)
		if err != nil {
			return err
		}
		for _, v := range rep.Vectors {
			fmt.Printf("%-16s id=%-6d %v\n", v.Word, v.ID, v.Vector)
		}
	case *delta:
		rep, err := svc.NeighborDelta(ctx, anchor.DeltaRequest{Algo: *algo, Words: words, Dim: *dim, K: *k,
			Bits: *bits, Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Printf("neighbor overlap wiki17 vs wiki18, %s d=%d k=%d seed=%d:\n", rep.Algo, rep.Dim, rep.K, rep.Seed)
		for _, d := range rep.Results {
			fmt.Printf("  %-16s overlap=%.2f  '17: %s\n  %-16s               '18: %s\n",
				d.Word, d.Overlap, neighborWords(d.A), "", neighborWords(d.B))
		}
		fmt.Printf("mean overlap: %.3f (1 = stable neighborhoods, 0 = fully replaced)\n", rep.MeanOverlap)
	default:
		rep, err := svc.Neighbors(ctx, req)
		if err != nil {
			return err
		}
		for _, r := range rep.Results {
			fmt.Printf("%-16s ", r.Word)
			for i, n := range r.Neighbors {
				if i > 0 {
					fmt.Print("  ")
				}
				fmt.Printf("%s(%.3f)", n.Word, n.Score)
			}
			fmt.Println()
		}
	}
	return nil
}

// neighborWords renders a neighbor list as a compact word string.
func neighborWords(ns []anchor.Neighbor) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = n.Word
	}
	return strings.Join(parts, " ")
}

// cmdExperiment reproduces paper artifacts on one Service, so every
// artifact of the invocation shares one runner and one artifact store:
// the embedding grid is trained once (and, with -cache-dir, at most once
// across invocations).
func cmdExperiment(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	id := fs.String("id", "fig1", "artifact id to run (see -list)")
	all := fs.Bool("all", false, "run every registered artifact")
	list := fs.Bool("list", false, "list artifact ids")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (taken after the run) to this file")
	sf := addServiceFlags(fs, "small")
	fs.Parse(args)

	if *list {
		fmt.Println(strings.Join(anchor.ExperimentIDs(), "\n"))
		return nil
	}
	svc, err := sf.newService()
	if err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, f.Close())
		}()
	}
	ids := []string{*id}
	if *all {
		ids = nil // every registered artifact
	}
	if err := svc.Experiments(ctx, ids, os.Stdout); err != nil {
		return err
	}
	if *memprofile == "" {
		return nil
	}
	f, err := os.Create(*memprofile)
	if err != nil {
		return err
	}
	runtime.GC() // materialize up-to-date heap statistics
	return errors.Join(pprof.WriteHeapProfile(f), f.Close())
}

func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	budget := fs.Int("serving-budget", 0,
		"serving memory budget in bits/word: dim-0 queries auto-select (dim, bits) by eigenspace instability under dim*bits <= budget (0 = disabled)")
	maxInFlight := fs.Int("max-in-flight", 64,
		"admission-control limit on concurrently served requests; excess requests are shed with 429 + Retry-After (0 = unbounded)")
	requestTimeout := fs.Duration("request-timeout", 30*time.Second,
		"per-endpoint deadline for read requests (vectors/neighbors/delta); exceeded requests get a structured 503 (0 = none)")
	computeTimeout := fs.Duration("compute-timeout", 10*time.Minute,
		"per-endpoint deadline for compute requests (train/measures/stability/select); exceeded requests get a structured 503 (0 = none)")
	sf := addServiceFlags(fs, "bench")
	fs.Parse(args)

	logger := log.New(os.Stderr, "anchor-serve ", log.LstdFlags)
	sf.progress = logger
	svc, err := sf.newService(anchor.WithServingBudget(*budget))
	if err != nil {
		return err
	}

	api := serve.New(svc, logger,
		serve.WithMaxInFlight(*maxInFlight),
		serve.WithReadTimeout(*requestTimeout),
		serve.WithComputeTimeout(*computeTimeout),
	)
	srv := &http.Server{
		Addr:    *addr,
		Handler: api.Handler(),
		// Requests inherit the serve context: SIGINT/SIGTERM cancels
		// in-flight computations at their next stage boundary.
		BaseContext: func(net.Listener) context.Context { return ctx },
		// Transport-level protection against slow or stuck clients: a
		// client that trickles its headers or body cannot pin a
		// connection forever, and idle keep-alives are reaped. These
		// bound the connection; the per-endpoint handler deadlines above
		// bound the work.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       1 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Printf("listening on %s (config=%s, cache-dir=%q)", *addr, *sf.config, *sf.cacheDir)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		logger.Println("shutting down...")
		// Fail readiness first so load balancers stop routing new
		// traffic, then drain in-flight requests.
		api.SetDraining(true)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	}
}
