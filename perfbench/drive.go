package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"templatedep/internal/cert"
)

// clientTimeout bounds one request; the RSS watchdog bounds its memory.
const clientTimeout = 60 * time.Second

// outcome is one answered (or failed) timed request.
type outcome struct {
	it   item
	lat  time.Duration
	fail string // "", "status", "transport", "timeout" or "watchdog"
	resp response
}

// epochResult is one tdserve lifetime: set-up, the timed closed loop, and
// the server-side readings taken around the loop.
type epochResult struct {
	setup    time.Duration
	timed    time.Duration
	out      []outcome
	cpuNS    int64
	delta    map[string]int64 // nil when a restart lost the counters
	peakKB   int64
	restarts int
	errs     []string // correctness gate failures
	certs    time.Duration
}

// bench owns the HTTP client and tdserve's launch settings.
type bench struct {
	opts   serverOpts
	client *http.Client
	logSrc string // the prepared store log, copied fresh for every epoch
	work   string
	// certChecked holds the keys whose inline certificate already passed
	// cert.Check in this invocation.
	certChecked map[string]bool
}

func newBench(opts serverOpts, clients int, work string) *bench {
	tr := &http.Transport{MaxIdleConnsPerHost: clients + 2, DisableCompression: true}
	return &bench{opts: opts, work: work, certChecked: map[string]bool{},
		client: &http.Client{Transport: tr, Timeout: clientTimeout}}
}

// epochLog is the store log an epoch's tdserve runs on.
func (d *bench) epochLog() string { return filepath.Join(d.work, "epoch.log") }

// launch starts tdserve (on the epoch's store log, if any) and waits until
// /healthz is ok.
func (d *bench) launch() (*server, error) {
	o := d.opts
	if d.logSrc != "" {
		o.store = d.epochLog()
	}
	s, err := startServer(o)
	if err != nil {
		return nil, err
	}
	if err := s.waitHealthy(d.client); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// check applies the per-answer correctness gate: ground-truth verdict,
// mode, and the canonical key the item's original carries.
func check(it item, r response) string {
	switch {
	case it.Want != "" && r.Verdict != it.Want:
		return fmt.Sprintf("%s: verdict %s, want %s", it.Label, r.Verdict, it.Want)
	case r.Mode != it.Mode:
		return fmt.Sprintf("%s: mode %s, want %s", it.Label, r.Mode, it.Mode)
	case r.Key != it.Key:
		return fmt.Sprintf("%s: key %s, want its original's %s", it.Label, r.Key, it.Key)
	}
	return ""
}

func definitive(v string) bool { return v == implied || v == fcex }

// epoch runs one tdserve lifetime over warm (set-up) and timed items.
func (d *bench) epoch(w workload, warm, timed []item) (*epochResult, error) {
	res := &epochResult{}
	if d.logSrc != "" {
		// A fresh copy of the prepared log per epoch; a restart after a
		// watchdog kill reopens the epoch's log as it stands.
		if err := copyFile(d.logSrc, d.epochLog()); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	s, err := d.launch()
	if err != nil {
		return nil, err
	}
	for _, it := range warm {
		r, fail := post(context.Background(), d.client, s.base+"/infer", it.Body)
		if fail != "" {
			s.stop()
			return nil, fmt.Errorf("warm-up %s failed (%s): %s", it.Label, fail, s.stderr.String())
		}
		if msg := check(it, r); msg != "" {
			res.errs = append(res.errs, "warm-up "+msg)
		}
	}
	res.setup = time.Since(t0)

	m0, err := s.counters(d.client)
	if err != nil {
		s.stop()
		return nil, err
	}
	var (
		mu       sync.Mutex // guards cur, gen, cpuStart, res.cpuNS, res.restarts, res.peakKB
		cur      = s
		gen      int
		cpuStart = s.cpuNS()
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	res.out = make([]outcome, len(timed))
	// restart replaces a server the watchdog killed (once per kill, however
	// many clients saw it die) and banks the dead process's timed CPU.
	restart := func(seen int) error {
		mu.Lock()
		defer mu.Unlock()
		if seen != gen {
			return nil
		}
		res.cpuNS += cur.lastCPU.Load() - cpuStart
		res.peakKB = max(res.peakKB, cur.peakKB.Load())
		cur.stop()
		res.restarts++
		s, err := d.launch()
		if err != nil {
			return err
		}
		cur, gen, cpuStart = s, gen+1, s.cpuNS()
		return nil
	}
	var fatal atomic.Value
	// Collect this process's garbage now, so its collector does not take
	// CPU from tdserve during the timed phase.
	runtime.GC()
	tStart := time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(timed) || fatal.Load() != nil {
					return
				}
				mu.Lock()
				srv, g := cur, gen
				mu.Unlock()
				ctx, cancel := context.WithTimeout(context.Background(), clientTimeout)
				t := time.Now()
				r, fail := post(ctx, d.client, srv.base+"/infer", timed[i].Body)
				lat := time.Since(t)
				cancel()
				if fail != "" && (srv.killed.Load() || !srv.alive()) {
					<-srv.exited
					if srv.killed.Load() {
						fail = "watchdog"
					}
					if err := restart(g); err != nil {
						fatal.Store(err)
					}
				}
				res.out[i] = outcome{it: timed[i], lat: lat, fail: fail, resp: r}
			}
		}()
	}
	wg.Wait()
	res.timed = time.Since(tStart)
	if err, _ := fatal.Load().(error); err != nil {
		return nil, err
	}
	res.cpuNS += cur.cpuNS() - cpuStart
	if res.restarts == 0 {
		m1, err := cur.counters(d.client)
		if err != nil {
			cur.stop()
			return nil, err
		}
		res.delta = map[string]int64{}
		for k, v := range m1 {
			res.delta[k] = v - m0[k]
		}
	}
	for _, o := range res.out {
		if o.fail == "" {
			if msg := check(o.it, o.resp); msg != "" {
				res.errs = append(res.errs, msg)
			}
		}
	}
	tc := time.Now()
	res.errs = append(res.errs, d.checkCerts(cur, res.out)...)
	res.certs = time.Since(tc)
	res.peakKB = max(res.peakKB, cur.peakKB.Load())
	// Close the client's idle connections first: tdserve's drain waits up
	// to 5 s for any accepted connection that never carried a request.
	d.client.CloseIdleConnections()
	cur.stop()
	res.peakKB = max(res.peakKB, cur.peakKB.Load())
	return res, nil
}

// checkCerts re-asks every definitive answer with ?cert=1 after the timed
// phase and verifies the inline certificate with the engine-free checker.
// Keys already verified in this invocation are skipped.
func (d *bench) checkCerts(s *server, out []outcome) []string {
	var errs []string
	for _, o := range out {
		if o.fail != "" || !definitive(o.resp.Verdict) || d.certChecked[o.resp.Key] || !s.alive() {
			continue
		}
		r, fail := post(context.Background(), d.client, s.base+"/infer?cert=1", o.it.Body)
		switch {
		case fail != "":
			errs = append(errs, fmt.Sprintf("%s: certificate request failed (%s)", o.it.Label, fail))
			continue
		case r.Verdict != o.resp.Verdict || r.Key != o.resp.Key:
			errs = append(errs, fmt.Sprintf("%s: repeat answered %s/%s, first %s/%s", o.it.Label, r.Verdict, r.Key, o.resp.Verdict, o.resp.Key))
			continue
		case len(r.Cert) == 0:
			errs = append(errs, fmt.Sprintf("%s: definitive %s without a certificate", o.it.Label, r.Verdict))
			continue
		}
		c, err := cert.Decode(r.Cert)
		if err == nil {
			err = cert.Check(c)
		}
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: certificate rejected: %v", o.it.Label, err))
			continue
		}
		d.certChecked[o.resp.Key] = true
	}
	return errs
}

// sourceCounts maps /metrics deltas onto answer sources.
func sourceCounts(delta map[string]int64) map[string]int64 {
	return map[string]int64{
		"cold":  delta["serve.cache_misses"] - delta["serve.warm"],
		"warm":  delta["serve.warm"],
		"cache": delta["serve.cache_hits"],
		"store": delta["serve.store_hits"],
		"dedup": delta["serve.dedups"],
	}
}

// determinismGate compares the sources the workload predicts with the
// server's own counters: equal exactly, and no dedup (no two in-flight
// requests share a key).
func determinismGate(timed []item, delta map[string]int64) []string {
	want := map[string]int64{}
	for _, it := range timed {
		want[it.Source]++
	}
	got := sourceCounts(delta)
	var errs []string
	for _, src := range []string{"cold", "warm", "cache", "store", "dedup"} {
		if got[src] != want[src] {
			errs = append(errs, fmt.Sprintf("work-determinism: %s answers %d, workload expects %d", src, got[src], want[src]))
		}
	}
	if n := delta["serve.requests"]; n != int64(len(timed)) {
		errs = append(errs, fmt.Sprintf("work-determinism: server counted %d requests, %d sent", n, len(timed)))
	}
	return errs
}

// percentile is the nearest-rank q-quantile of sorted; +Inf stands for a
// failed request.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
