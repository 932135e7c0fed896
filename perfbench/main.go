// Command perfbench is the repository's benchmark. It loads one workload
// into a file-backed database from a seed, serves it through an in-process
// bdbms-server on a loopback port, drives it with at most two client
// connections, checks every answer, and after the run reopens the data
// file to prove every acknowledged write durable and DB.Verify clean.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload oltp --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays the same
// operation stream untraced over the wire, traced over the wire through a
// frame-counting relay, and traced on the embedded API, and reports the
// per-layer metrics. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"bdbms"
)

// workDir holds the run's database and span files, relative to the
// directory the benchmark is run from.
const workDir = ".bench_build/perfbench"

// setups is how many times a --trace 0 run loads its database; setup_s
// is their median.
const setups = 3

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "oltp, analytics or curation")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if workloads[cfg.workload] == nil || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload oltp|analytics|curation, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run performs one benchmark run and returns its result line.
func run(cfg config, log io.Writer) (*output, error) {
	w := workloads[cfg.workload]
	dir := filepath.Join(workDir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bench.db")

	d := genDataset(cfg.seed, w.sz)
	params := queryParams(cfg.seed, d)
	ck := newChecker(d, params, w.curation)
	fmt.Fprintf(log, "workload=%s seed=%d seconds=%d trace=%v go=%s gomaxprocs=%d cpus=%d\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	n := setups
	if cfg.trace {
		n = 1
	}
	var setupS []float64
	var db *bdbms.DB
	for i := 0; i < n; i++ {
		for _, f := range dbFiles(path) {
			os.Remove(f)
		}
		start := time.Now()
		var err error
		if db, err = w.setUp(path, d, params, ck); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if i < n-1 {
			if err := db.Close(); err != nil {
				return nil, err
			}
		}
	}
	srv, err := serve(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	m := &measurer{w: w, d: d, params: params, ck: ck, db: db, srv: srv, path: path, cfg: cfg, log: log}
	fmt.Fprintf(log, "setup_s=%v heap_pages=%d pool_pages=256 spill_budget=%d\n", setupS, m.snap().heapPages, w.spill)
	out, err := m.measure()
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	if !cfg.trace {
		out.Metrics["setup_s"] = metric{median(setupS), "s"}
		fmt.Fprintf(log, "metric setup_s=%.6g s\n", median(setupS))
	}

	// Durability and integrity: the database is closed (a clean
	// checkpoint), reopened from its files alone and checked.
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if problems := checkReopened(w, path, d, ck); problems != "" {
		fmt.Fprintln(log, "durability:", problems)
		out.Correct = false
	} else {
		fmt.Fprintf(log, "durability: ok (%d acknowledged writes found), verify: ok\n", ck.ackedWrites())
	}
	return out, nil
}

// checkReopened reopens the database and returns what is wrong with it,
// or "" when every acknowledged write is present and Verify is clean.
func checkReopened(w *workload, path string, d *dataset, ck *checker) string {
	db, err := openDB(path, w.spill)
	if err != nil {
		return "reopen: " + err.Error()
	}
	defer db.Close()
	if err := w.checkDurable(db, d, ck); err != nil {
		return err.Error()
	}
	rep, err := db.Verify()
	if err != nil {
		return "verify: " + err.Error()
	}
	if len(rep.Problems) > 0 {
		return fmt.Sprintf("verify: %d problems, first: %v", len(rep.Problems), rep.Problems[0])
	}
	return ""
}

// measurer runs the measured passes of one run.
type measurer struct {
	w      *workload
	d      *dataset
	params map[opKind][]int64
	ck     *checker
	db     *bdbms.DB
	srv    *served
	path   string
	cfg    config
	log    io.Writer
}

func (m *measurer) wire(addr string) func(clientSpec) (executor, error) {
	return func(s clientSpec) (executor, error) { return dialWire(addr, s.user, s.prepared) }
}

func (m *measurer) embedded(tr *tracer) func(clientSpec) (executor, error) {
	return func(s clientSpec) (executor, error) { return newEmbedExec(m.db, s.user, s.prepared, tr) }
}

// settle is how long the workload runs over the wire, checked but not
// measured, between set-up and the measured phase: throughput still climbs
// for the first seconds after a load (page cache, WAL file, GC pacing).
const settle = 3 * time.Second

func (m *measurer) measure() (*output, error) {
	p, err := runPass(m.w.clients(m.cfg.seed, passSettle, m.d, m.params), m.wire(m.srv.addr()), m.ck, settle, nil)
	if err != nil {
		return nil, err
	}
	if f := p.count(false); f > 0 {
		return nil, fmt.Errorf("settle pass: %d operations failed: %v", f, p.errs)
	}
	dur := time.Duration(m.cfg.seconds) * time.Second
	if !m.cfg.trace {
		return m.endToEnd(dur)
	}
	return m.perLayer(dur / 3)
}

// endToEnd runs one untraced pass over the wire.
func (m *measurer) endToEnd(dur time.Duration) (*output, error) {
	before := readRuntime()
	heap := startHeapSampler()
	p, err := runPass(m.w.clients(m.cfg.seed, 0, m.d, m.params), m.wire(m.srv.addr()), m.ck, dur, nil)
	heapP95, heapMax := heap()
	after := readRuntime()
	if err != nil {
		return nil, err
	}
	disk, err := m.diskPerUserByte()
	if err != nil {
		return nil, err
	}
	out := newOutput(p)
	byClass := p.byClass()
	var p50s, p90s []float64
	for _, k := range sortedClasses(byClass) {
		lats := byClass[k]
		p50, p90 := percentile(lats, 0.5), percentile(lats, 0.9)
		p50s, p90s = append(p50s, p50), append(p90s, p90)
		fmt.Fprintf(m.log, "class=%-12s n=%-6d p50_ms=%.3f p90_ms=%.3f p99_ms=%.3f max_ms=%.3f\n",
			k, len(lats), p50, p90, percentile(lats, 0.99), percentile(lats, 1))
		fmt.Fprintf(m.log, "metric %s_p50_ms=%.4f ms\n", k, p50)
		if k == opPoint || k == opUpdate {
			fmt.Fprintf(m.log, "metric %s_p90_ms=%.4f ms\n", k, p90)
		}
	}
	fmt.Fprintf(m.log, "metric failed_ratio=%.6f ratio\n", ratio(float64(out.Failed), float64(out.Attempted)))
	set := func(name, unit string, v float64) {
		out.Metrics[name] = metric{v, unit}
		fmt.Fprintf(m.log, "metric %s=%.6g %s\n", name, v, unit)
	}
	set("ops_per_s", "1/s", p.opsPerSec())
	set("op_p50_ms", "ms", geomean(p50s))
	set("op_p90_ms", "ms", geomean(p90s))
	set("alloc_kb_per_op", "kB", ratio(float64(after.alloc-before.alloc)/1024, float64(p.count(true))))
	set("peak_heap_mb", "MB", heapP95/(1<<20))
	fmt.Fprintf(m.log, "live heap max %.1f MB\n", heapMax/(1<<20))
	set("disk_bytes_per_user_byte", "ratio", disk)
	return out, nil
}

// diskPerUserByte checkpoints and sizes the database's files against the
// user bytes loaded and written.
func (m *measurer) diskPerUserByte() (float64, error) {
	if err := m.db.Checkpoint(); err != nil {
		return 0, err
	}
	var disk int64
	for _, f := range dbFiles(m.path) {
		disk += fileSize(f)
	}
	return float64(disk) / float64(m.w.userBytes(m.d)+m.ck.written.Load()), nil
}

func newOutput(passes ...*passResult) *output {
	out := &output{Metrics: map[string]metric{}}
	for _, p := range passes {
		out.Attempted += len(p.recs)
		out.Failed += p.count(false)
		for _, e := range p.errs {
			fmt.Fprintln(os.Stderr, "failed:", e)
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	return out
}

// byClass groups the correct operations' latencies, in ms, by class.
// Curator writes of every kind form one class, "commit".
func (p *passResult) byClass() map[opKind][]float64 {
	out := map[opKind][]float64{}
	for _, r := range p.recs {
		if !r.ok {
			continue
		}
		k := r.kind
		if k.isWrite() {
			k = opUpdate
		}
		out[k] = append(out[k], ms(r.lat))
	}
	return out
}

func sortedClasses(m map[opKind][]float64) []opKind {
	ks := make([]opKind, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// runtimeSnap is process-wide runtime accounting.
type runtimeSnap struct {
	alloc uint64 // cumulative heap bytes allocated
	gcs   uint64
	cpu   time.Duration // user + system
}

var runtimeSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}

func readRuntime() runtimeSnap {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return runtimeSnap{alloc: s[0].Value.Uint64(), gcs: s[1].Value.Uint64(), cpu: cpu}
}

// startHeapSampler samples the live heap, as the last garbage collection
// measured it, every 5 ms until the returned function is called, which
// stops the sampler and returns the 95th percentile and the maximum of the
// samples in bytes. Live heap rather than allocated heap, so garbage
// awaiting collection does not count; the percentile, because the single
// highest collection depends on which query it happened to interrupt.
func startHeapSampler() func() (p95, peak float64) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var samples []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			samples = append(samples, float64(s[0].Value.Uint64()))
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() (float64, float64) {
		close(stop)
		wg.Wait()
		return percentile(samples, 0.95), percentile(samples, 1)
	}
}
