// Command perfbench is the end-to-end benchmark of tdserve. It starts the
// real tdserve binary (meters only, -request-timeout 0), drives one of
// four seeded workloads over HTTP from this single process, checks every
// answer, and prints the end-to-end metrics. With -trace 1 it instead
// calls the layers' public functions in-process on the same inputs and
// prints per-layer metrics and the tracing overhead.
//
// Run it from the repository root through perfbench/run.sh, which builds
// tdserve and this program first:
//
//	bash perfbench/run.sh --workload td-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any failed correctness or
// work-determinism gate makes correct false and the exit code 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"templatedep/internal/obs"
	"templatedep/internal/serve"
	"templatedep/internal/store"
)

// maxWall stops a run from starting another epoch once it has been going
// this long, so the whole invocation ends well inside 180 seconds.
const maxWall = 100 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "td-cold, pres-cold, store-warm or tm-hard")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "timed seconds to measure (whole epochs are run until they add up to this)")
		trace   = flag.Int("trace", 0, "1 = the traced in-process run printing per-layer metrics")
		bin     = flag.String("tdserve", ".bench_build/tdserve", "tdserve binary")
		work    = flag.String("work", ".bench_build/work", "scratch directory for store logs and spans")
	)
	flag.Parse()
	correct, err := run(*name, *seed, *seconds, *trace == 1, *bin, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run measures one workload and prints the report and the result line.
// It reports whether every gate passed.
func run(name string, seed int64, seconds int, traced bool, bin, work string) (bool, error) {
	w, err := workloadFor(name, seed)
	if err != nil {
		return false, err
	}
	if traced && !w.gated {
		return false, fmt.Errorf("%s has no traced run: in-process, its requests would exhaust this process's memory", name)
	}
	if _, err := os.Stat(bin); err != nil {
		return false, fmt.Errorf("tdserve binary: %w", err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return false, err
	}
	procs := min(2, runtime.NumCPU())
	w.clients = min(w.clients, procs)
	d := newBench(serverOpts{bin: bin, procs: procs}, w.clients, work)
	defer d.client.CloseIdleConnections()
	printHost(procs, w)

	if len(w.logged) > 0 {
		d.logSrc = filepath.Join(work, "prepared.log")
		if err := os.Remove(d.logSrc); err != nil && !os.IsNotExist(err) {
			return false, err
		}
		t := time.Now()
		n, err := prepareStore(d.logSrc, w.logged)
		if err != nil {
			return false, fmt.Errorf("prepare store log: %w", err)
		}
		fmt.Printf("store: prepared %d settled verdicts in %.2fs (copied fresh for every epoch)\n", n, time.Since(t).Seconds())
	}

	start, steal0 := time.Now(), stealTicks()
	var (
		epochs []*epochResult
		first  []item // the first epoch's timed requests, replayed by the traced run
		total  time.Duration
		errs   []string
		gen    time.Duration
	)
	for n := 0; ; n++ {
		tg := time.Now()
		warm, timed, err := w.epoch(n)
		gen += time.Since(tg)
		if err != nil {
			return false, err
		}
		e, err := d.epoch(w, warm, timed)
		if err != nil {
			return false, fmt.Errorf("epoch %d: %w", n, err)
		}
		if w.gated {
			if e.delta == nil {
				e.errs = append(e.errs, "work-determinism: tdserve restarted, its counters are lost")
			} else {
				e.errs = append(e.errs, determinismGate(timed, e.delta)...)
			}
		}
		errs = append(errs, e.errs...)
		epochs = append(epochs, e)
		if n == 0 {
			first = timed
		}
		total += e.timed
		if traced || total >= time.Duration(seconds)*time.Second || time.Since(start) > maxWall {
			break
		}
	}
	s := summarize(w, epochs)
	s.print(w, epochs)
	var certs time.Duration
	for _, e := range epochs {
		certs += e.certs
	}
	fmt.Printf("wall: %.1fs in epochs, %.1fs generating inputs, %.1fs checking certificates\n",
		time.Since(start).Seconds(), gen.Seconds(), certs.Seconds())
	if steal1 := stealTicks(); steal1[1] > steal0[1] {
		fmt.Printf("host: CPU time stolen by the hypervisor during the epochs: %.2f%%\n",
			100*float64(steal1[0]-steal0[0])/float64(steal1[1]-steal0[1]))
	}
	var metrics map[string]metric
	if traced {
		layers, inproc, err := traceRun(w, d, first, epochs[0], work)
		if err != nil {
			return false, err
		}
		metrics, errs = layers, append(errs, inproc...)
	} else {
		metrics = s.endToEnd()
	}
	for _, e := range errs {
		fmt.Println("GATE FAILED:", e)
	}
	res := result{Correct: len(errs) == 0, Attempted: s.attempted, Failed: s.failed, Metrics: metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// stealTicks reads the steal and total columns of /proc/stat's cpu line
// (zeros where unavailable).
func stealTicks() [2]int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]int64{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var t [2]int64
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i == 7 {
			t[0] = n
		}
		t[1] += n
	}
	return t
}

func printHost(procs int, w workload) {
	mem := "?"
	if data, err := os.ReadFile("/proc/meminfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(l, "MemTotal:"); ok {
				mem = strings.TrimSpace(v)
			}
		}
	}
	fmt.Printf("host: nproc=%d tdserve_gomaxprocs=%d clients=%d mem=%s go=%s\n",
		runtime.NumCPU(), procs, w.clients, mem, runtime.Version())
	fmt.Printf("watchdog: rss_ceiling=%dMB poll=%s client_timeout=%s\n", rssCeilingMB, watchPoll, clientTimeout)
}

// summary aggregates a run's epochs.
type summary struct {
	epochs, attempted, ok, failed, decided int
	reasons                                map[string]int
	failures                               []string // "label: reason"

	sources map[string]int64
	// Per-epoch series: the run reports their medians, so a burst of host
	// noise that slows a minority of epochs does not move the figure.
	setups, rss, rps, p50s, cpus []float64
	lat                          []float64 // ms over all epochs, +Inf for failures
	timed                        time.Duration
	tail                         float64
}

func summarize(w workload, epochs []*epochResult) *summary {
	s := &summary{epochs: len(epochs), reasons: map[string]int{}, sources: map[string]int64{}, tail: w.tail}
	for _, e := range epochs {
		s.setups = append(s.setups, e.setup.Seconds())
		s.rss = append(s.rss, float64(e.peakKB)/1024)
		s.timed += e.timed
		ok := 0
		var lat []float64
		for _, o := range e.out {
			s.attempted++
			if o.fail != "" {
				s.failed++
				s.reasons[o.fail]++
				s.failures = append(s.failures, o.it.Label+": "+o.fail)
				lat = append(lat, math.Inf(1))
				continue
			}
			ok++
			if definitive(o.resp.Verdict) {
				s.decided++
			}
			lat = append(lat, float64(o.lat.Microseconds())/1000)
		}
		s.ok += ok
		s.lat = append(s.lat, lat...)
		sort.Float64s(lat)
		s.p50s = append(s.p50s, percentile(lat, 0.5))
		s.rps = append(s.rps, float64(ok)/e.timed.Seconds())
		s.cpus = append(s.cpus, float64(e.cpuNS)/1e6/float64(len(e.out)))
		for k, v := range sourceCounts(e.delta) {
			s.sources[k] += v
		}
	}
	sort.Float64s(s.lat)
	return s
}

// ratio is a/b, NaN when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

func (s *summary) endToEnd() map[string]metric {
	m := map[string]metric{
		"setup_s":               {median(s.setups), "s"},
		"throughput_rps":        {median(s.rps), "1/s"},
		"latency_p50_ms":        {median(s.p50s), "ms"},
		"server_cpu_ms_per_req": {median(s.cpus), "ms"},
		"peak_rss_mb":           {median(s.rss), "MB"},
		"ok_ratio":              {ratio(float64(s.ok), float64(s.attempted)), "1"},
		"decided_ratio":         {ratio(float64(s.decided), float64(s.ok)), "1"},
		"latency_tail_ms":       {percentile(s.lat, s.tail), "ms"},
	}
	// JSON has no Inf or NaN: an undefined figure (every request failed)
	// is reported as -1 and explained in the report lines above.
	for k, v := range m {
		if math.IsInf(v.Value, 0) || math.IsNaN(v.Value) {
			m[k] = metric{-1, v.Unit}
		}
	}
	return m
}

func (s *summary) print(w workload, epochs []*epochResult) {
	beyond := len(s.lat) - int(math.Ceil(w.tail*float64(len(s.lat))))
	fmt.Printf("workload: %s epochs=%d timed=%.2fs attempted=%d ok=%d failed=%d reasons=%v\n",
		w.name, s.epochs, s.timed.Seconds(), s.attempted, s.ok, s.failed, s.reasons)
	for _, f := range s.failures {
		fmt.Println("failed request:", f)
	}
	fmt.Printf("sources (from /metrics deltas): cold=%d warm=%d cache=%d store=%d dedup=%d\n",
		s.sources["cold"], s.sources["warm"], s.sources["cache"], s.sources["store"], s.sources["dedup"])
	fmt.Printf("latency: samples=%d tail=p%s with %d samples beyond it\n",
		len(s.lat), strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.1f", w.tail*100), "0"), "."), beyond)
	var slowest []string
	for _, e := range epochs {
		for _, o := range e.out {
			if o.fail != "" || float64(o.lat.Microseconds())/1000 >= percentile(s.lat, w.tail) {
				slowest = append(slowest, o.it.Source)
			}
		}
	}
	fmt.Printf("latency: sources at or beyond the tail: %s\n", countOf(slowest))
	if beyond < 10 {
		fmt.Printf("WARNING: fewer than 10 samples beyond the tail percentile\n")
	}
	m := s.endToEnd()
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-22s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// prepareStore answers every logged problem on an in-process server
// backed by a fresh store at path, so the log holds real settled verdicts
// with checked certificates.
func prepareStore(path string, logged []problem) (int, error) {
	st, err := store.Open(path, store.Options{})
	if err != nil {
		return 0, err
	}
	s := serve.New(serve.Config{Store: st, Counters: obs.NewCounters(), Workers: 1})
	errs := make([]error, len(logged))
	var wg sync.WaitGroup
	const workers = 2
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < len(logged); i += workers {
				p, err := serve.ParseRequest(logged[i].request())
				if err != nil {
					errs[i] = err
					continue
				}
				r, err := s.Infer(p)
				if err == nil && r.Verdict.String() != logged[i].proto.Want {
					err = fmt.Errorf("logged problem %s settled %s, want %s", logged[i].proto.Label, r.Verdict, logged[i].proto.Want)
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	_ = s.Shutdown(context.Background()) // every run above has returned
	n := st.Len()
	if err := st.Close(); err != nil {
		return 0, err
	}
	return n, errors.Join(errs...)
}

// countOf renders how often each string occurs, in sorted order.
func countOf(xs []string) string {
	n := map[string]int{}
	for _, x := range xs {
		n[x]++
	}
	keys := make([]string, 0, len(n))
	for k := range n {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d ", k, n[k])
	}
	return strings.TrimSpace(b.String())
}
