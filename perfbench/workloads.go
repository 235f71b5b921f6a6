package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"templatedep/internal/corpus"
	"templatedep/internal/obs"
	"templatedep/internal/reduction"
	"templatedep/internal/relation"
	"templatedep/internal/serve"
	"templatedep/internal/tableau"
	"templatedep/internal/td"
	"templatedep/internal/words"
)

// Verdict strings as tdserve writes them.
const (
	implied = "implied"
	fcex    = "finite-counterexample"
)

// item is one request of a workload together with everything the
// correctness and work-determinism gates expect of its answer.
type item struct {
	Label  string // preset name or corpus ID
	Mode   string // "td" or "presentation"
	Body   []byte // the POST /infer JSON body
	Want   string // the ground-truth verdict; "" when none is known
	Source string // the answer source the workload expects
	Key    string // the canonical key digest of the original problem
	State  string // the canonical chase-state key ("" for presentations)
}

// problem is one logical problem. Its canonical key is computed once from
// the original; render gives a fresh text of it — new symbol or attribute
// names, a new equation or dependency order — which tdserve must answer
// under that same key.
type problem struct {
	proto item // everything but Body and Source
	pres  *words.Presentation
	deps  []*td.TD
	goal  *td.TD
}

func newProblem(label, want string, req serve.Request) (problem, error) {
	p, err := serve.ParseRequest(req)
	if err != nil {
		return problem{}, fmt.Errorf("%s: %w", label, err)
	}
	return problem{proto: item{Label: label, Mode: p.Mode, Want: want, Key: p.Hash, State: p.StateKey},
		pres: p.Pres, deps: p.Deps, goal: p.Goal}, nil
}

// request is the problem in its original text.
func (p problem) request() serve.Request {
	if p.pres != nil {
		return presRequest(p.pres)
	}
	return serve.Request{Schema: p.goal.Schema().Names(), Goal: p.goal.Format(), Deps: formatTDs(p.deps)}
}

func (p problem) render(rng *rand.Rand, source string) (item, error) {
	var req serve.Request
	if p.pres != nil {
		rp, err := rename(rng, p.pres)
		if err != nil {
			return item{}, err
		}
		req = presRequest(rp)
	} else {
		deps, goal, err := renameColumns(rng, p.deps, p.goal)
		if err != nil {
			return item{}, err
		}
		req = tdRequest(rng, deps, goal)
	}
	body, err := json.Marshal(req)
	it := p.proto
	it.Body, it.Source = body, source
	return it, err
}

// workload is one seeded traffic mix. Each epoch runs a fresh tdserve:
// warm is answered one at a time as part of set-up, timed is driven by
// the closed loop.
type workload struct {
	name    string
	clients int
	tail    float64 // the fixed tail percentile
	// logged, when set, are the settled problems of the store log every
	// epoch starts from.
	logged []problem
	epoch  func(n int) (warm, timed []item, err error)
	// gated is false only where a killed server takes its counters with
	// it (tm-hard), so no /metrics delta exists to compare.
	gated bool
}

// presetVerdict is the ground truth of the preset families: chains,
// twostep and collapse derive A0 = 0 (Reduction Theorem (A): implied);
// power, nilpotent and tower have finite cancellation counter-models
// (direction (B): a finite counterexample).
func presetVerdict(name string) string {
	fam, _, _ := strings.Cut(name, ":")
	switch fam {
	case "chain", "twostep", "collapse":
		return implied
	case "power", "nilpotent", "tower":
		return fcex
	}
	return ""
}

func oracleVerdict(o corpus.OracleVerdict) string {
	switch o {
	case corpus.OracleImplied:
		return implied
	case corpus.OracleNotImplied:
		return fcex
	}
	return ""
}

// presetProblem is a preset presentation, or at TD level the reduction's
// (D, D0) for it — exactly what `tdinfer -preset` runs.
func presetProblem(name string, tdLevel bool) (problem, error) {
	if !tdLevel {
		return newProblem(name, presetVerdict(name), serve.Request{Preset: name})
	}
	p, err := words.Preset(name)
	if err != nil {
		return problem{}, err
	}
	in, err := reduction.Build(p)
	if err != nil {
		return problem{}, err
	}
	return tdProblem(name, presetVerdict(name), in.D, in.D0)
}

func tdProblem(label, want string, deps []*td.TD, goal *td.TD) (problem, error) {
	return newProblem(label, want, serve.Request{Schema: goal.Schema().Names(), Goal: goal.Format(), Deps: formatTDs(deps)})
}

func formatTDs(ds []*td.TD) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Format()
	}
	return out
}

func presetProblems(names []string, tdLevel bool) ([]problem, error) {
	out := make([]problem, len(names))
	for i, name := range names {
		var err error
		if out[i], err = presetProblem(name, tdLevel); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rename returns p under a seeded symbol renaming and equation order;
// the alphabet keeps its order. The canonical key is invariant under
// both, and so is most of the engines' work: a new alphabet order would
// permute the reduction's columns, which moves the finite-database search
// by orders of magnitude (tower:4 takes 14 to 460 ms across column orders).
func rename(rng *rand.Rand, p *words.Presentation) (*words.Presentation, error) {
	a := p.Alphabet
	syms := a.Symbols()
	fresh := make(map[words.Symbol]string, len(syms))
	names := make([]string, len(syms))
	for i, s := range syms {
		fresh[s] = fmt.Sprintf("s%d_%d", i, rng.Intn(1000))
		names[i] = fresh[s]
	}
	na, err := words.NewAlphabet(names, fresh[a.A0()], fresh[a.Zero()])
	if err != nil {
		return nil, err
	}
	mapWord := func(w words.Word) words.Word {
		out := make(words.Word, len(w))
		for i, s := range w {
			out[i] = na.MustSymbol(fresh[s])
		}
		return out
	}
	eqs := make([]words.Equation, len(p.Equations))
	for i, j := range rng.Perm(len(p.Equations)) {
		e := p.Equations[j]
		eqs[i] = words.Eq(mapWord(e.LHS), mapWord(e.RHS))
	}
	return words.NewPresentation(na, eqs)
}

func presRequest(p *words.Presentation) serve.Request {
	a := p.Alphabet
	req := serve.Request{Alphabet: a.Names(), A0: a.Name(a.A0()), Zero: a.Name(a.Zero())}
	for _, e := range p.Equations {
		req.Equations = append(req.Equations, e.Format(a))
	}
	return req
}

// tdRequest renders (deps, goal) in a seeded dependency order.
func tdRequest(rng *rand.Rand, deps []*td.TD, goal *td.TD) serve.Request {
	req := serve.Request{Schema: goal.Schema().Names(), Goal: goal.Format()}
	for _, j := range rng.Perm(len(deps)) {
		req.Deps = append(req.Deps, deps[j].Format())
	}
	return req
}

// renameColumns rebuilds deps and goal over a schema with fresh attribute
// names: the same tableaux, so the same canonical key, in new text.
func renameColumns(rng *rand.Rand, deps []*td.TD, goal *td.TD) ([]*td.TD, *td.TD, error) {
	names := make([]string, goal.Schema().Width())
	for i := range names {
		names[i] = fmt.Sprintf("C%d_%d", i, rng.Intn(1000))
	}
	s, err := relation.NewSchema(names)
	if err != nil {
		return nil, nil, err
	}
	rebuild := func(d *td.TD) (*td.TD, error) {
		ants := make([]tableau.VarTuple, d.NumAntecedents())
		for i := range ants {
			ants[i] = d.Antecedent(i)
		}
		return td.New(s, ants, d.Conclusion(), d.Name())
	}
	out := make([]*td.TD, len(deps))
	for i, d := range deps {
		if out[i], err = rebuild(d); err != nil {
			return nil, nil, err
		}
	}
	g, err := rebuild(goal)
	return out, g, err
}

// oracleTwinGoal is a second goal over the instance's own dependencies
// and antecedent tableau — so it shares the original's chase state — with
// the same ground truth: for an MVD X ↠ Y it is the complement
// X ↠ U − XY. (Columns in X are the ones where the two antecedent rows
// agree.)
func oracleTwinGoal(g *td.TD) (*td.TD, error) {
	w := g.Schema().Width()
	t2, c := g.Antecedent(1), g.Conclusion()
	out := make(tableau.VarTuple, w)
	for a := 0; a < w; a++ {
		switch {
		case t2[a] == 0: // X: kept
			out[a] = 0
		case c[a] == 0: // Y − X: now taken from the second row
			out[a] = 1
		default: // U − XY: now taken from the first row
			out[a] = 0
		}
	}
	return td.New(g.Schema(), []tableau.VarTuple{g.Antecedent(0), t2}, out, "goal")
}

// mvds draws corpus oracle instances for stream (seed, salt) and keeps
// the multivalued-dependency half of the family, up to n of them. MVDs
// render as full TDs, so the chase terminates on them. The other half,
// independence atoms, renders as embedded TDs, and about 1 in 50 of those
// (8 of the first 400 on seed 1) runs the chase into the unmetered
// homomorphism buffer until the process is out of memory — the defect
// tm-hard carries. Mixed in here, it would turn the cold workloads into
// failure workloads.
func mvds(seed int64, salt, n int) ([]problem, error) {
	ins, err := corpus.Generate(corpus.Options{Seed: seed*7919 + int64(salt), Oracle: 3 * n})
	if err != nil {
		return nil, err
	}
	var out []problem
	for _, in := range ins {
		if strings.HasPrefix(in.Label, "mvd") && len(out) < n {
			p, err := tdProblem(in.ID, oracleVerdict(in.Oracle), in.Deps, in.Goal)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// keySet enforces the workloads' uniqueness rules: no canonical key is
// asked twice in an epoch unless the workload means it to be, and no two
// cold TD problems share a chase state unless one is meant to warm-start
// from the other.
type keySet struct{ keys, states map[string]bool }

func newKeySet(ps ...problem) *keySet {
	k := &keySet{keys: map[string]bool{}, states: map[string]bool{}}
	for _, p := range ps {
		k.add(p)
	}
	return k
}

func (k *keySet) fresh(p problem) bool {
	return !k.keys[p.proto.Key] && (p.proto.State == "" || !k.states[p.proto.State])
}

func (k *keySet) add(p problem) {
	k.keys[p.proto.Key] = true
	if p.proto.State != "" {
		k.states[p.proto.State] = true
	}
}

// renderAll renders every problem for one epoch.
func renderAll(rng *rand.Rand, ps []problem, source string) ([]item, error) {
	out := make([]item, len(ps))
	for i, p := range ps {
		var err error
		if out[i], err = p.render(rng, source); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// warmTwin returns orig's second goal, and whether it really warm-starts
// from orig's chase state on a fresh in-process server.
func warmTwin(orig problem, ks *keySet) (problem, bool, error) {
	g2, err := oracleTwinGoal(orig.goal)
	if err != nil {
		return problem{}, false, err
	}
	twin, err := tdProblem(orig.proto.Label+"/twin", orig.proto.Want, orig.deps, g2)
	if err != nil || ks.keys[twin.proto.Key] || twin.proto.Key == orig.proto.Key {
		return problem{}, false, err
	}
	s := serve.New(serve.Config{Counters: obs.NewCounters()})
	defer s.Shutdown(context.Background()) //nolint:errcheck // nothing is in flight
	var src string
	for _, p := range []problem{orig, twin} {
		pr, err := serve.ParseRequest(p.request())
		if err != nil {
			return problem{}, false, err
		}
		r, err := s.Infer(pr)
		if err != nil {
			return problem{}, false, err
		}
		src = r.Source
	}
	return twin, src == "warm", nil
}

// renderTwins renders an oracle problem and its twin under one fresh
// naming: tdserve warm-starts a second goal only from a chase state over
// the same attribute names, although the state cache's key ignores them.
func renderTwins(rng *rand.Rand, orig, twin problem) (item, item, error) {
	deps, goal, err := renameColumns(rng, orig.deps, orig.goal)
	if err != nil {
		return item{}, item{}, err
	}
	g2, err := oracleTwinGoal(goal)
	if err != nil {
		return item{}, item{}, err
	}
	a, b := orig.proto, twin.proto
	a.Source, b.Source = "cold", "warm"
	if a.Body, err = json.Marshal(tdRequest(rng, deps, goal)); err != nil {
		return item{}, item{}, err
	}
	b.Body, err = json.Marshal(tdRequest(rng, deps, g2))
	return a, b, err
}

// interleave shuffles base, then places each twin a seeded lo..hi
// requests after its original: far enough that the original has been
// answered (no dedup), close enough that its chase state or verdict is
// still cached.
func interleave(rng *rand.Rand, base []item, twins map[int]item, lo, hi int) []item {
	slots := make([][]item, len(base)+hi+1)
	for pos, j := range rng.Perm(len(base)) {
		slots[pos] = append(slots[pos], base[j])
		if t, ok := twins[j]; ok {
			at := pos + lo + rng.Intn(hi-lo+1)
			slots[at] = append(slots[at], t)
		}
	}
	var out []item
	for _, s := range slots {
		out = append(out, s...)
	}
	return out
}

// tdCold: distinct TD-level problems. The reduction's (D, D0) for preset
// families swept over size, corpus oracle MVDs for their axiomatic ground
// truth, and oracle twins that ask a second goal over an already chased
// dependency set.
func tdCold(seed int64) (workload, error) {
	sweep := []string{"power", "twostep", "chain:1", "chain:2"}
	for m := 3; m <= 30; m++ {
		sweep = append(sweep, fmt.Sprintf("nilpotent:%d", m))
	}
	for k := 2; k <= 20; k++ {
		sweep = append(sweep, fmt.Sprintf("tower:%d", k))
	}
	// The warm-up slice is real engine work outside the sweep, so set-up
	// time is dominated by it rather than by exec.
	warmup := []string{"nilpotent:33", "tower:22"}
	// The oracle family is here for its ground truth, not its weight: a
	// third of the requests, so the median stays an engine-bound request.
	const nOracle, nTwins = 16, 8
	warmPs, err := presetProblems(warmup, true)
	if err != nil {
		return workload{}, err
	}
	swept, err := presetProblems(sweep, true)
	if err != nil {
		return workload{}, err
	}
	return workload{name: "td-cold", clients: 2, tail: 0.9, gated: true,
		epoch: func(n int) ([]item, []item, error) {
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(n)))
			warm, err := renderAll(rng, warmPs, "cold")
			if err != nil {
				return nil, nil, err
			}
			base, err := renderAll(rng, swept, "cold")
			if err != nil {
				return nil, nil, err
			}
			ks := newKeySet(append(warmPs, swept...)...)
			ins, err := mvds(seed, n, 8*nOracle)
			if err != nil {
				return nil, nil, err
			}
			// Exactly nTwins oracle problems with a warm twin and
			// nOracle-nTwins without, so every epoch has the same make-up.
			twins := map[int]item{}
			nTw, nSolo := 0, 0
			for _, orig := range ins {
				if nTw == nTwins && nSolo == nOracle-nTwins {
					break
				}
				if !ks.fresh(orig) {
					continue
				}
				var twin problem
				warmOK := false
				if nTw < nTwins {
					if twin, warmOK, err = warmTwin(orig, ks); err != nil {
						return nil, nil, err
					}
				}
				var it item
				switch {
				case warmOK:
					var second item
					if it, second, err = renderTwins(rng, orig, twin); err != nil {
						return nil, nil, err
					}
					ks.keys[twin.proto.Key] = true
					twins[len(base)] = second
					nTw++
				case nSolo < nOracle-nTwins:
					if it, err = orig.render(rng, "cold"); err != nil {
						return nil, nil, err
					}
					nSolo++
				default:
					continue
				}
				ks.add(orig)
				base = append(base, it)
			}
			if nTw < nTwins || nSolo < nOracle-nTwins {
				return nil, nil, fmt.Errorf("td-cold: only %d oracle problems with a warm twin and %d without", nTw, nSolo)
			}
			// At most 48 TD requests come between, fewer than the 64-entry
			// chase-state cache holds.
			return warm, interleave(rng, base, twins, 16, 48), nil
		}}, nil
}

// presCold: distinct presentation-level problems, the preset families
// swept over size, each sent under a seeded renaming and equation order.
func presCold(seed int64) (workload, error) {
	sweep := []string{"power", "twostep", "collapse:2"}
	// chain:7 and up sit at the edge where completion stops winning: under
	// some equation orders the chase decides them instead, ten times slower.
	for n := 1; n <= 6; n++ {
		sweep = append(sweep, fmt.Sprintf("chain:%d", n))
	}
	for m := 2; m <= 30; m++ {
		sweep = append(sweep, fmt.Sprintf("nilpotent:%d", m))
	}
	for k := 1; k <= 5; k++ {
		sweep = append(sweep, fmt.Sprintf("tower:%d", k))
	}
	// The warm-up slice poses problems outside the sweep (nilpotent:M
	// for M > 30), so no timed key is answered from the cache.
	warmup := []string{"nilpotent:31", "nilpotent:33", "nilpotent:35"}
	warmPs, err := presetProblems(warmup, false)
	if err != nil {
		return workload{}, err
	}
	swept, err := presetProblems(sweep, false)
	if err != nil {
		return workload{}, err
	}
	if ks := newKeySet(append(warmPs, swept...)...); len(ks.keys) != len(warmup)+len(sweep) {
		return workload{}, fmt.Errorf("pres-cold: two presets share a canonical key")
	}
	return workload{name: "pres-cold", clients: 2, tail: 0.9, gated: true,
		epoch: func(n int) ([]item, []item, error) {
			rng := rand.New(rand.NewSource(seed*1_000_033 + int64(n)))
			warm, err := renderAll(rng, warmPs, "cold")
			if err != nil {
				return nil, nil, err
			}
			timed, err := renderAll(rng, swept, "cold")
			rng.Shuffle(len(timed), func(i, j int) { timed[i], timed[j] = timed[j], timed[i] })
			return warm, timed, err
		}}, nil
}

const (
	storeOracles  = 3000
	storeReserved = 16   // logged problems kept for the warm-up slice
	storeTouched  = 1400 // logged keys each epoch touches (> the 1024-entry cache)
	storeNewShare = 10   // percent of requests that are new problems
)

// storeWarm: tdserve restarts on a log of settled verdicts — oracle MVDs
// plus small preset presentations, whose certificates are derivations and
// semigroup models rather than chase traces. Traffic is renamed twins of
// logged problems over more keys than the verdict cache holds (each key's
// first touch is a store read, its second a cache hit) plus a share of
// new oracle problems whose answers append to the log.
func storeWarm(seed int64) (workload, error) {
	ins, err := mvds(seed, -1, 2*storeOracles)
	if err != nil {
		return workload{}, err
	}
	ks := newKeySet()
	var logged []problem
	for _, p := range ins {
		if len(logged) < storeOracles && !ks.keys[p.proto.Key] {
			ks.keys[p.proto.Key] = true
			logged = append(logged, p)
		}
	}
	if len(logged) < storeOracles {
		return workload{}, fmt.Errorf("store-warm: only %d distinct oracle problems", len(logged))
	}
	presets := []string{"power", "twostep", "tower:1", "tower:2"}
	for n := 1; n <= 5; n++ {
		presets = append(presets, fmt.Sprintf("chain:%d", n))
	}
	for m := 2; m <= 12; m++ {
		presets = append(presets, fmt.Sprintf("nilpotent:%d", m))
	}
	pres, err := presetProblems(presets, false)
	if err != nil {
		return workload{}, err
	}
	logged = append(logged, pres...)
	for _, p := range pres {
		ks.keys[p.proto.Key] = true
	}
	// Each logged problem's two twins are rendered once per run: every
	// epoch starts from a fresh copy of the log, so they are a store read
	// and a cache hit again in every epoch. New problems are drawn fresh
	// each epoch, so the tail of their cost is sampled widely.
	rng := rand.New(rand.NewSource(seed * 1_000_037))
	warm, err := renderAll(rng, logged[:storeReserved], "store")
	if err != nil {
		return workload{}, err
	}
	firsts, err := renderAll(rng, logged[storeReserved:], "store")
	if err != nil {
		return workload{}, err
	}
	seconds, err := renderAll(rng, logged[storeReserved:], "cache")
	if err != nil {
		return workload{}, err
	}
	return workload{name: "store-warm", clients: 2, tail: 0.999, gated: true, logged: logged,
		epoch: func(n int) ([]item, []item, error) {
			rng := rand.New(rand.NewSource(seed*1_000_037 + int64(n) + 1))
			// Every epoch touches all logged presentations (their store
			// reads re-check the heaviest certificates and set the tail)
			// and a seeded subset of the logged oracle problems.
			var base []item
			twins := map[int]item{}
			touch := func(j int) {
				twins[len(base)] = seconds[j]
				base = append(base, firsts[j])
			}
			nOr := len(firsts) - len(pres)
			for j := nOr; j < len(firsts); j++ {
				touch(j)
			}
			for _, j := range rng.Perm(nOr)[:storeTouched-len(pres)] {
				touch(j)
			}
			// New problems: 10% of all requests, fresh keys and fresh
			// chase states, so each runs the engines exactly once.
			want := 2 * storeTouched * storeNewShare / (100 - storeNewShare)
			fresh, err := mvds(seed, 1000+n, want+want/4)
			if err != nil {
				return nil, nil, err
			}
			news := newKeySet()
			for _, p := range fresh {
				if want > 0 && !ks.keys[p.proto.Key] && news.fresh(p) {
					news.add(p)
					it, err := p.render(rng, "cold")
					if err != nil {
						return nil, nil, err
					}
					base = append(base, it)
					want--
				}
			}
			if want > 0 {
				return nil, nil, fmt.Errorf("store-warm: %d new problems short", want)
			}
			// 256..512 requests apart: about 50 ms at this workload's rate,
			// and fewer new keys in between than the 1024-entry cache holds.
			return warm, interleave(rng, base, twins, 256, 512), nil
		}}, nil
}

// tmHard: the paper's undecidability family — the corpus tm instances
// (TM-halting reductions, run-forever included) plus the gap preset —
// one request at a time. At the time of writing every one of them drives
// tdserve into the RSS watchdog.
func tmHard(seed int64) (workload, error) {
	ins, err := corpus.Generate(corpus.Options{Seed: seed, TM: 8})
	if err != nil {
		return workload{}, err
	}
	var ps []problem
	for _, in := range ins {
		p, err := newProblem(in.ID, "", presRequest(in.Pres))
		if err != nil {
			return workload{}, err
		}
		ps = append(ps, p)
	}
	gap, err := presetProblem("gap", false)
	if err != nil {
		return workload{}, err
	}
	ps = append(ps, gap)
	return workload{name: "tm-hard", clients: 1, tail: 0.9, gated: false,
		epoch: func(n int) ([]item, []item, error) {
			rng := rand.New(rand.NewSource(seed*1_000_039 + int64(n)))
			timed, err := renderAll(rng, ps, "cold")
			rng.Shuffle(len(timed), func(i, j int) { timed[i], timed[j] = timed[j], timed[i] })
			return nil, timed, err
		}}, nil
}

func workloadFor(name string, seed int64) (workload, error) {
	switch name {
	case "td-cold":
		return tdCold(seed)
	case "pres-cold":
		return presCold(seed)
	case "store-warm":
		return storeWarm(seed)
	case "tm-hard":
		return tmHard(seed)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want td-cold, pres-cold, store-warm or tm-hard)", name)
}
