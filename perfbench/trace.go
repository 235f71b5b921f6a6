package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"templatedep/internal/budget"
	"templatedep/internal/cert"
	"templatedep/internal/chase"
	"templatedep/internal/core"
	"templatedep/internal/finitemodel"
	"templatedep/internal/obs"
	"templatedep/internal/portfolio"
	"templatedep/internal/search"
	"templatedep/internal/serve"
	"templatedep/internal/store"
	"templatedep/internal/words"
)

// The traced run replays a workload's inputs in-process through the
// layers' public functions, in the order tdserve calls them: parse,
// canonicalize, store read, portfolio (with certification), cert.Check,
// store write. Spans around those calls, and an obs.Sink on the engines'
// event stream, give the per-layer metrics. Nothing inside the program
// changes: the spans live in this file only.

var arms = []string{"kb", "chase", "eid", "model-search", "finite-db"}

var exhaustible = []string{"rounds", "tuples", "nodes", "words", "rules"}

// layerMetric is one per-layer metric and the end-to-end metric (and
// workload) it should move.
type layerMetric struct {
	name, unit, moves string
}

func layerMetrics() []layerMetric {
	ms := []layerMetric{
		{"serve.parse_us", "us", "throughput_rps, server_cpu_ms_per_req on store-warm; no change on td-cold"},
		{"serve.canon_us.pres", "us", "throughput_rps, server_cpu_ms_per_req on store-warm; no change on td-cold"},
		{"serve.canon_us.td", "us", "throughput_rps, server_cpu_ms_per_req on store-warm; no change on td-cold"},
		{"serve.hit_ratio", "1", "throughput_rps, server_cpu_ms_per_req on store-warm"},
		{"serve.cold", "count", "exact; the work-determinism gate"},
		{"serve.warm", "count", "exact; the work-determinism gate"},
		{"serve.cache_hits", "count", "exact; the work-determinism gate"},
		{"serve.store_hits", "count", "exact; the work-determinism gate"},
	}
	for _, a := range arms {
		ms = append(ms, layerMetric{"portfolio.busy_ms." + a, "ms", "latency_tail_ms, throughput_rps on td-cold; latency_p50_ms on pres-cold; no change on store-warm"})
	}
	for _, a := range arms {
		ms = append(ms, layerMetric{"portfolio.leases." + a, "count", "latency_tail_ms, throughput_rps on td-cold; latency_p50_ms on pres-cold"})
	}
	ms = append(ms,
		layerMetric{"portfolio.useful_ratio", "1", "latency_tail_ms, throughput_rps on td-cold; latency_p50_ms on pres-cold"},
		layerMetric{"portfolio.ticks", "count", "latency_tail_ms, throughput_rps on td-cold; latency_p50_ms on pres-cold"},
		layerMetric{"portfolio.chain2_fdb_eid_over_chase", "1", "latency_tail_ms on td-cold (the portfolio's fairness on chain:2)"},
		layerMetric{"chase.homs_seen", "count", "server_cpu_ms_per_req on td-cold; peak_rss_mb, ok_ratio on tm-hard"},
		layerMetric{"chase.triggers_fired", "count", "server_cpu_ms_per_req on td-cold"},
		layerMetric{"chase.fire_ratio", "1", "server_cpu_ms_per_req on td-cold; peak_rss_mb on tm-hard"},
		layerMetric{"chase.rounds", "count", "server_cpu_ms_per_req on td-cold"},
		layerMetric{"chase.tuples", "count", "server_cpu_ms_per_req on td-cold; peak_rss_mb on tm-hard"},
		layerMetric{"finitemodel.nodes", "count", "latency_tail_ms on td-cold"},
		layerMetric{"search.nodes", "count", "latency_p50_ms on pres-cold"},
		layerMetric{"rewrite.rules", "count", "latency_p50_ms on pres-cold"},
		layerMetric{"cert.check_us.derivation", "us", "server_cpu_ms_per_req on store-warm"},
		layerMetric{"cert.check_us.chase", "us", "server_cpu_ms_per_req on store-warm"},
		layerMetric{"cert.check_us.finite-model", "us", "server_cpu_ms_per_req on store-warm"},
		layerMetric{"cert.bytes", "bytes", "server_cpu_ms_per_req on store-warm"},
		layerMetric{"store.recover_ms", "ms", "setup_s on store-warm"},
		layerMetric{"store.recover_records", "count", "setup_s on store-warm"},
		layerMetric{"store.get_us", "us", "server_cpu_ms_per_req on store-warm; a little on the cold workloads"},
		layerMetric{"store.put_us", "us", "server_cpu_ms_per_req on store-warm; a little on the cold workloads"},
		layerMetric{"store.bytes_per_put", "bytes", "server_cpu_ms_per_req on store-warm"},
	)
	for _, r := range exhaustible {
		ms = append(ms, layerMetric{"budget.exhausted." + r, "count", "decided_ratio on every workload; ok_ratio on tm-hard"})
	}
	for _, n := range spanNames {
		ms = append(ms, layerMetric{"self_ms." + n, "ms", "the layer's share of server_cpu_ms_per_req"})
	}
	ms = append(ms, layerMetric{"trace.overhead_ratio", "1", "traced minus untraced in-process time, over untraced"})
	return ms
}

var spanNames = []string{"request", "serve.ParseRequest", "serve.CanonPresentation", "serve.CanonInference",
	"store.Open", "store.Get", "store.Put", "portfolio.AnalyzePresentation", "portfolio.Infer", "cert.Check"}

// span is one timed call. Spans of one request share Req; Parent is the
// enclosing span's ID (0 at the root).
type span struct {
	Name    string  `json:"name"`
	Req     int     `json:"req"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s span) dur() float64 { return s.EndUS - s.StartUS }

// tracer keeps spans in memory; a disabled tracer records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, req, parent int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, Req: req, ID: len(t.spans) + 1, Parent: parent,
		StartUS: float64(time.Since(t.t0).Nanoseconds()) / 1e3})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id > 0 {
		t.spans[id-1].EndUS = float64(time.Since(t.t0).Nanoseconds()) / 1e3
	}
}

// durations lists the durations (µs) of the spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfMS sums, per span name, each span's duration minus the part its
// children cover (children of one span never overlap: the calls are
// sequential).
func (t *tracer) selfMS() map[string]float64 {
	covered := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		covered[s.Parent] += s.dur()
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += (s.dur() - covered[s.ID]) / 1e3
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerSink times portfolio leases (arm_start to arm_result), counts
// budget stops by resource, and folds everything else into the
// canonical counters.
type layerSink struct {
	mu        sync.Mutex
	counters  *obs.Counters
	fold      *obs.CounterSink
	started   map[string]time.Time
	busy      map[string]time.Duration // this request's
	leases    map[string]int
	exhausted map[string]int
}

func newLayerSink() *layerSink {
	c := obs.NewCounters()
	return &layerSink{counters: c, fold: obs.NewCounterSink(c), started: map[string]time.Time{},
		busy: map[string]time.Duration{}, leases: map[string]int{}, exhausted: map[string]int{}}
}

func (s *layerSink) Event(e obs.Event) {
	now := time.Now()
	s.fold.Event(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case e.Type == obs.EvBudgetExhausted:
		s.exhausted[e.Resource]++
	case e.Src == "portfolio" && e.Type == obs.EvArmStart:
		s.started[e.Arm] = now
		s.leases[e.Arm]++
	case e.Src == "portfolio" && e.Type == obs.EvArmResult:
		s.busy[e.Arm] += now.Sub(s.started[e.Arm])
	}
}

// take returns and resets the current request's per-arm busy time.
func (s *layerSink) take() map[string]time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.busy
	s.busy = map[string]time.Duration{}
	return b
}

// pipeline is the in-process replica of tdserve's lookup ladder.
type pipeline struct {
	tr      *tracer
	sink    *layerSink // nil when untraced
	workers int
	st      *store.Store
	seen    map[string]bool         // stands in for the verdict cache
	states  map[string]*chase.State // stands in for the chase-state cache
	errs    []string

	busy      map[string]time.Duration // all requests
	useful    time.Duration            // the winning arm's busy time
	chain2    map[string]time.Duration
	ticks     int
	certUS    map[string][]float64
	certBytes []float64
	recoverMS float64
	recovered int
	elapsed   time.Duration
}

func newPipeline(traced bool, workers int) *pipeline {
	p := &pipeline{tr: &tracer{on: traced, t0: time.Now()}, workers: workers,
		seen: map[string]bool{}, states: map[string]*chase.State{},
		busy: map[string]time.Duration{}, chain2: map[string]time.Duration{}, certUS: map[string][]float64{}}
	if traced {
		p.sink = newLayerSink()
	}
	return p
}

// options mirrors the per-request budget tdserve builds: meters only, one
// child governor per arm at the engine defaults, certification on.
func (p *pipeline) options(pr *serve.Problem, warm *chase.State) portfolio.Options {
	g := budget.New(context.Background(), budget.Limits{})
	b := core.Budget{Governor: g, Certify: true}
	if p.sink != nil {
		b.Sink = p.sink
	}
	b.Chase = chase.DefaultOptions()
	b.Chase.Governor = g.Child(budget.Limits{Rounds: chase.DefaultLimits.Rounds, Tuples: chase.DefaultLimits.Tuples})
	b.Chase.Workers = p.workers
	b.FiniteDB.Workers = p.workers
	b.Closure.Governor = g.Child(budget.Limits{Words: words.DefaultLimits.Words})
	b.ModelSearch.Governor = g.Child(budget.Limits{Nodes: search.DefaultLimits.Nodes})
	b.FiniteDB.Governor = g.Child(budget.Limits{Nodes: finitemodel.DefaultLimits.Nodes})
	if pr.StateKey != "" {
		b.Chase.CaptureState = true
		b.Chase.WarmState = warm
	}
	return b.PortfolioOptions()
}

func (p *pipeline) openStore(src, path string) error {
	if err := copyFile(src, path); err != nil {
		return err
	}
	var opts store.Options
	if p.sink != nil {
		opts.Sink = p.sink
	}
	id := p.tr.begin("store.Open", 0, 0)
	t := time.Now()
	st, err := store.Open(path, opts)
	p.recoverMS = float64(time.Since(t).Microseconds()) / 1e3
	p.tr.end(id)
	if err != nil {
		return err
	}
	p.st, p.recovered = st, st.Len()
	return nil
}

func (p *pipeline) checkCert(c *cert.Certificate, req, parent int) {
	id := p.tr.begin("cert.Check", req, parent)
	t := time.Now()
	err := cert.Check(c)
	p.certUS[string(c.Kind)] = append(p.certUS[string(c.Kind)], float64(time.Since(t).Nanoseconds())/1e3)
	p.tr.end(id)
	if err != nil {
		p.errs = append(p.errs, fmt.Sprintf("in-process certificate rejected: %v", err))
	}
}

// do answers one item the way tdserve would.
func (p *pipeline) do(it item, req int) {
	root := p.tr.begin("request", req, 0)
	defer p.tr.end(root)
	var wire serve.Request
	if err := json.Unmarshal(it.Body, &wire); err != nil {
		p.errs = append(p.errs, err.Error())
		return
	}
	id := p.tr.begin("serve.ParseRequest", req, root)
	pr, err := serve.ParseRequest(wire)
	p.tr.end(id)
	if err != nil {
		p.errs = append(p.errs, err.Error())
		return
	}
	if pr.Pres != nil {
		id = p.tr.begin("serve.CanonPresentation", req, root)
		serve.CanonPresentation(pr.Pres.WithZeroEquations())
	} else {
		id = p.tr.begin("serve.CanonInference", req, root)
		serve.CanonInference(pr.Deps, pr.Goal)
	}
	p.tr.end(id)
	if p.seen[pr.Key] {
		return // a verdict-cache hit: no layer below the cache runs
	}
	p.seen[pr.Key] = true
	if p.st != nil {
		id = p.tr.begin("store.Get", req, root)
		rec, ok := p.st.Get(pr.Key)
		p.tr.end(id)
		if ok {
			if len(rec.Cert) > 0 {
				c, err := cert.Decode(rec.Cert)
				if err != nil {
					p.errs = append(p.errs, err.Error())
					return
				}
				p.certBytes = append(p.certBytes, float64(len(rec.Cert)))
				p.checkCert(c, req, root)
			}
			return
		}
	}

	opt := p.options(pr, p.states[pr.StateKey])
	var res *portfolio.Result
	if pr.Pres != nil {
		id = p.tr.begin("portfolio.AnalyzePresentation", req, root)
		res, err = portfolio.AnalyzePresentation(pr.Pres, opt)
	} else {
		id = p.tr.begin("portfolio.Infer", req, root)
		res, err = portfolio.Infer(pr.Deps, pr.Goal, opt)
	}
	p.tr.end(id)
	if err != nil {
		p.errs = append(p.errs, fmt.Sprintf("%s: %v", it.Label, err))
		return
	}
	verdict := core.VerdictOf(res.Verdict).String()
	if it.Want != "" && verdict != it.Want {
		p.errs = append(p.errs, fmt.Sprintf("in-process %s: verdict %s, want %s", it.Label, verdict, it.Want))
	}
	if res.Chase != nil && res.Chase.State != nil && pr.StateKey != "" {
		p.states[pr.StateKey] = res.Chase.State
	}
	p.ticks += res.Ticks
	if p.sink != nil {
		for arm, d := range p.sink.take() {
			p.busy[arm] += d
			if arm == res.Winner {
				p.useful += d
			}
			if it.Label == "chain:2" && it.Mode == "td" {
				p.chain2[arm] += d
			}
		}
	}
	var raw []byte
	if c := res.Cert(); c != nil {
		if raw, err = json.Marshal(c); err != nil {
			p.errs = append(p.errs, err.Error())
			return
		}
		p.certBytes = append(p.certBytes, float64(len(raw)))
		p.checkCert(c, req, root)
	}
	if p.st != nil {
		rec := store.Record{Key: pr.Key, Verdict: verdict, Winner: res.Winner, Cert: raw,
			Class: store.Class{Rounds: chase.DefaultLimits.Rounds, Tuples: chase.DefaultLimits.Tuples,
				Nodes: search.DefaultLimits.Nodes, Words: words.DefaultLimits.Words}}
		id = p.tr.begin("store.Put", req, root)
		_, err := p.st.Put(rec)
		p.tr.end(id)
		if err != nil {
			p.errs = append(p.errs, err.Error())
		}
	}
}

// pass runs every item through a fresh pipeline.
func pass(traced bool, workers int, items []item, logSrc, work string) (*pipeline, error) {
	p := newPipeline(traced, workers)
	t := time.Now()
	if logSrc != "" {
		if err := p.openStore(logSrc, filepath.Join(work, "inprocess.log")); err != nil {
			return nil, err
		}
		defer p.st.Close()
	}
	for i, it := range items {
		p.do(it, i+1)
	}
	p.elapsed = time.Since(t)
	return p, nil
}

// traceRun is the traced run: an untraced and a traced in-process pass
// over the first epoch's timed inputs, plus the exact /metrics source
// counts of the HTTP epoch. It returns the per-layer metrics and the
// in-process correctness failures.
func traceRun(w workload, d *bench, items []item, e *epochResult, work string) (map[string]metric, []string, error) {
	plain, err := pass(false, d.opts.procs, items, d.logSrc, work)
	if err != nil {
		return nil, nil, err
	}
	p, err := pass(true, d.opts.procs, items, d.logSrc, work)
	if err != nil {
		return nil, nil, err
	}
	spans := filepath.Join(work, "spans-"+w.name+".jsonl")
	if err := p.tr.write(spans); err != nil {
		return nil, nil, err
	}

	v := map[string]float64{}
	src := sourceCounts(e.delta)
	v["serve.cold"], v["serve.warm"] = float64(src["cold"]), float64(src["warm"])
	v["serve.cache_hits"], v["serve.store_hits"] = float64(src["cache"]), float64(src["store"])
	v["serve.hit_ratio"] = zeroNaN(ratio(float64(src["cache"]), float64(e.delta["serve.requests"])))
	v["serve.parse_us"] = zeroNaN(median(p.tr.durations("serve.ParseRequest")))
	v["serve.canon_us.pres"] = zeroNaN(median(p.tr.durations("serve.CanonPresentation")))
	v["serve.canon_us.td"] = zeroNaN(median(p.tr.durations("serve.CanonInference")))
	var all time.Duration
	for _, a := range arms {
		v["portfolio.busy_ms."+a] = float64(p.busy[a].Microseconds()) / 1e3
		v["portfolio.leases."+a] = float64(p.sink.leases[a])
		all += p.busy[a]
	}
	v["portfolio.useful_ratio"] = zeroNaN(ratio(float64(p.useful), float64(all)))
	v["portfolio.ticks"] = float64(p.ticks)
	v["portfolio.chain2_fdb_eid_over_chase"] = zeroNaN(ratio(float64(p.chain2["finite-db"]+p.chain2["eid"]), float64(p.chain2["chase"])))
	c := p.sink.counters
	v["chase.homs_seen"] = float64(c.Get("chase.homomorphisms"))
	v["chase.triggers_fired"] = float64(c.Get("chase.triggers_fired"))
	v["chase.fire_ratio"] = zeroNaN(ratio(float64(c.Get("chase.triggers_fired")), float64(c.Get("chase.homomorphisms"))))
	v["chase.rounds"] = float64(c.Get("chase.rounds"))
	v["chase.tuples"] = float64(c.Get("chase.tuples_added"))
	v["finitemodel.nodes"] = float64(c.Get("finitemodel.nodes"))
	v["search.nodes"] = float64(c.Get("search.nodes"))
	v["rewrite.rules"] = float64(c.Get("rewrite.rules_added"))
	for _, k := range []string{"derivation", "chase", "finite-model"} {
		v["cert.check_us."+k] = zeroNaN(median(p.certUS[k]))
	}
	v["cert.bytes"] = zeroNaN(mean(p.certBytes))
	v["store.recover_ms"] = p.recoverMS
	v["store.recover_records"] = float64(p.recovered)
	v["store.get_us"] = zeroNaN(median(p.tr.durations("store.Get")))
	v["store.put_us"] = zeroNaN(median(p.tr.durations("store.Put")))
	v["store.bytes_per_put"] = zeroNaN(ratio(float64(c.Get("store.written_bytes")), float64(c.Get("store.puts"))))
	for _, r := range exhaustible {
		v["budget.exhausted."+r] = float64(p.sink.exhausted[r])
	}
	self := p.tr.selfMS()
	for _, n := range spanNames {
		v["self_ms."+n] = self[n]
	}
	v["trace.overhead_ratio"] = p.elapsed.Seconds()/plain.elapsed.Seconds() - 1

	fmt.Printf("traced run: %d requests in-process; untraced %.3fs, traced %.3fs, overhead %+.1f%%; %d spans in %s\n",
		len(items), plain.elapsed.Seconds(), p.elapsed.Seconds(), 100*v["trace.overhead_ratio"], len(p.tr.spans), spans)
	for r, n := range p.sink.exhausted {
		if !slices.Contains(exhaustible, r) {
			fmt.Printf("budget_exhausted on an unlisted resource %q: %d\n", r, n)
		}
	}
	out := map[string]metric{}
	for _, m := range layerMetrics() {
		out[m.name] = metric{v[m.name], m.unit}
		fmt.Printf("layer %-36s %14.3f %-5s -> %s\n", m.name, v[m.name], m.unit, m.moves)
	}
	return out, append(plain.errs, p.errs...), nil
}

// zeroNaN reports a figure that does not apply to the workload (a median
// of no samples, a ratio over zero) as 0.
func zeroNaN(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
