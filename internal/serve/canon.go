// Canonical cache keys. Two requests that pose the same inference problem
// must map to the same key, or the verdict cache answers neither and the
// singleflight collapses nothing. "The same problem" is wider than "the
// same bytes":
//
//   - a presentation's symbol names are arbitrary (renaming every non-
//     distinguished symbol yields an isomorphic semigroup, hence the same
//     verdict),
//   - the order of the equation list is irrelevant (a presentation is a
//     SET of equations), as is each equation's orientation (x = y and
//     y = x generate the same congruence),
//   - a TD set's member order and the TDs' display names are irrelevant.
//
// CanonPresentation therefore computes a true canonical form up to symbol
// renaming: iterated color refinement (symbols are distinguished by an
// isomorphism-invariant signature of their occurrences) followed by
// individualization with full branching, taking the lexicographically
// minimal serialization over all completions. Refinement collapses the
// branching to nothing on every realistic presentation; a node cap guards
// the factorial worst case, falling back to a renaming-sensitive (but
// still sound) key — a fallback costs cache hits, never correctness.
//
// CanonInference canonicalizes a TD instance up to dependency order and
// naming. Column permutations and antecedent-row permutations are NOT
// canonicalized (that is the same graph-isomorphism-shaped problem again,
// for a request form that — unlike presentations, which the reduction
// emits in every renaming — rarely arrives permuted); two requests that
// differ only there are answered correctly, just without sharing a cache
// line.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"strings"

	"templatedep/internal/td"
	"templatedep/internal/words"
)

// canonNodeCap bounds the individualization-refinement search. Refinement
// leaves at most a handful of interchangeable symbols on real inputs, so
// hitting the cap means an adversarially symmetric presentation; the
// fallback key keeps such requests sound and cheap.
const canonNodeCap = 4096

// keyDigest condenses a canonical form into the wire key: a short hex
// digest for events and responses plus the full form as the map key.
func keyDigest(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:8])
}

// CanonPresentation returns the canonical cache key of p: equal for any
// two presentations that differ only by renaming non-distinguished
// symbols, permuting the equation list, or flipping equation orientations.
func CanonPresentation(p *words.Presentation) string {
	n := p.Alphabet.Size()
	c := &canonizer{
		n:    n,
		a0:   int(p.Alphabet.A0()),
		zero: int(p.Alphabet.Zero()),
		eqs:  make([][2][]int, 0, len(p.Equations)),
	}
	for _, e := range p.Equations {
		c.eqs = append(c.eqs, [2][]int{symbolIDs(e.LHS), symbolIDs(e.RHS)})
	}
	if s, ok := c.canonical(); ok {
		return "pres:" + s
	}
	// Too symmetric to canonicalize within the cap: fall back to a key in
	// the original names. Sound (identical requests still collide) but
	// renaming-blind.
	return "presraw:" + rawPresentationForm(p)
}

func symbolIDs(w words.Word) []int {
	out := make([]int, len(w))
	for i, s := range w {
		out[i] = int(s)
	}
	return out
}

func rawPresentationForm(p *words.Presentation) string {
	forms := make([]string, 0, len(p.Equations))
	for _, e := range p.Equations {
		l, r := e.LHS.Key(), e.RHS.Key()
		if r < l {
			l, r = r, l
		}
		forms = append(forms, l+"="+r)
	}
	sort.Strings(forms)
	forms = dedupSorted(forms)
	return strings.Join(p.Alphabet.Names(), ",") + "|" + strings.Join(forms, ";")
}

// canonizer runs the individualization-refinement canonical labeling.
type canonizer struct {
	n, a0, zero int
	eqs         [][2][]int
	nodes       int
	best        string
	found       bool
}

// canonical returns the minimal serialization over all refinement-guided
// labelings, or ok=false when the search exceeded canonNodeCap.
func (c *canonizer) canonical() (string, bool) {
	colors := make([]int, c.n)
	colors[c.a0] = 1
	colors[c.zero] = 2
	c.search(c.refine(colors))
	return c.best, c.found && c.nodes <= canonNodeCap
}

// refine iterates color refinement to a fixpoint: each symbol's new color
// is determined by its old color and the isomorphism-invariant multiset of
// its occurrences (which equations it appears in, on which side, at which
// position, with sides identified by their color strings rather than their
// textual order). Classes only ever split, so at most n iterations run.
func (c *canonizer) refine(colors []int) []int {
	distinct := countDistinct(colors)
	for {
		occ := make([][]string, c.n)
		for _, eq := range c.eqs {
			ls := colorString(eq[0], colors)
			rs := colorString(eq[1], colors)
			a, b := ls, rs
			if b < a {
				a, b = b, a
			}
			esig := a + "=" + b
			for side, w := range eq {
				scs := ls
				if side == 1 {
					scs = rs
				}
				for pos, sym := range w {
					occ[sym] = append(occ[sym], esig+"#"+scs+"@"+strconv.Itoa(pos))
				}
			}
		}
		sigs := make([]string, c.n)
		for s := 0; s < c.n; s++ {
			sort.Strings(occ[s])
			sigs[s] = strconv.Itoa(colors[s]) + "|" + strings.Join(occ[s], "&")
		}
		order := append([]string(nil), sigs...)
		sort.Strings(order)
		order = dedupSorted(order)
		id := make(map[string]int, len(order))
		for i, sg := range order {
			id[sg] = i
		}
		next := make([]int, c.n)
		for s, sg := range sigs {
			next[s] = id[sg]
		}
		if nd := countDistinct(next); nd == distinct {
			return next
		} else {
			distinct = nd
		}
		colors = next
	}
}

// search explores the individualization tree: at each node with a
// non-singleton color class it branches on every member of the first such
// class, re-refines, and recurses; discrete leaves serialize the labeled
// presentation and the lexicographic minimum over leaves is the canonical
// form. Exceeding canonNodeCap abandons the whole search (the caller falls
// back), keeping the result independent of traversal order.
func (c *canonizer) search(colors []int) {
	if c.nodes > canonNodeCap {
		return
	}
	c.nodes++
	count := make(map[int]int, c.n)
	maxColor := 0
	for _, col := range colors {
		count[col]++
		if col > maxColor {
			maxColor = col
		}
	}
	cell := -1
	for col := 0; col <= maxColor; col++ {
		if count[col] > 1 {
			cell = col
			break
		}
	}
	if cell == -1 {
		s := c.serialize(colors)
		if !c.found || s < c.best {
			c.best, c.found = s, true
		}
		return
	}
	for sym := 0; sym < c.n; sym++ {
		if colors[sym] != cell {
			continue
		}
		next := append([]int(nil), colors...)
		next[sym] = maxColor + 1
		c.search(c.refine(next))
		if c.nodes > canonNodeCap {
			return
		}
	}
}

// serialize renders the presentation under a discrete coloring: symbols
// are named by their color rank, equations are orientation-normalized,
// sorted, and deduplicated, and the distinguished symbols' ranks are
// pinned in a header so A0 and 0 can never trade places silently.
func (c *canonizer) serialize(colors []int) string {
	rank := densify(colors)
	forms := make([]string, 0, len(c.eqs))
	for _, eq := range c.eqs {
		l := rankString(eq[0], rank)
		r := rankString(eq[1], rank)
		if r < l {
			l, r = r, l
		}
		forms = append(forms, l+"="+r)
	}
	sort.Strings(forms)
	forms = dedupSorted(forms)
	return "n" + strconv.Itoa(c.n) +
		",a" + strconv.Itoa(rank[c.a0]) +
		",z" + strconv.Itoa(rank[c.zero]) + "|" +
		strings.Join(forms, ";")
}

// densify maps a discrete coloring to ranks 0..n-1 in color order.
func densify(colors []int) []int {
	idx := make([]int, len(colors))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return colors[idx[a]] < colors[idx[b]] })
	rank := make([]int, len(colors))
	for r, sym := range idx {
		rank[sym] = r
	}
	return rank
}

func colorString(w []int, colors []int) string {
	parts := make([]string, len(w))
	for i, s := range w {
		parts[i] = strconv.Itoa(colors[s])
	}
	return strings.Join(parts, ".")
}

func rankString(w []int, rank []int) string {
	parts := make([]string, len(w))
	for i, s := range w {
		parts[i] = strconv.Itoa(rank[s])
	}
	return strings.Join(parts, ".")
}

func countDistinct(colors []int) int {
	seen := make(map[int]bool, len(colors))
	for _, c := range colors {
		seen[c] = true
	}
	return len(seen)
}

func dedupSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// CanonInference returns the canonical cache key of a TD instance:
// invariant under dependency-set order, duplicate members, TD display
// names, and attribute names (variables are rendered by their tableau
// indices, which the tableau layer already normalizes to first-occurrence
// order).
func CanonInference(deps []*td.TD, goal *td.TD) string {
	forms := make([]string, 0, len(deps))
	for _, d := range deps {
		forms = append(forms, canonTD(d))
	}
	sort.Strings(forms)
	forms = dedupSorted(forms)
	width := 0
	if goal != nil {
		width = goal.Schema().Width()
	}
	return "td:w" + strconv.Itoa(width) + "|" +
		strings.Join(forms, ";") + ">>" + canonTD(goal)
}

// CanonChaseState returns the canonical chase-state cache key of a TD
// instance: the CanonInference form truncated before the goal's conclusion
// row. The chase of deps ⊨? goal starts from the goal's frozen antecedents
// and is otherwise goal-independent — tableau variable numbering is
// first-occurrence order with antecedents first, so the antecedent rows'
// canonical rendering is unaffected by the conclusion — which means two
// goals sharing a dependency set and antecedent tableau chase the SAME
// deterministic computation and can share one snapshot.
func CanonChaseState(deps []*td.TD, goal *td.TD) string {
	return chaseStateKey(CanonInference(deps, goal))
}

// chaseStateKey cuts a CanonInference key down to its CanonChaseState key.
func chaseStateKey(inference string) string {
	// canonTD renders antecedents '>' conclusion; the last '>' therefore
	// cuts exactly the goal's conclusion row off the full key.
	return "cs:" + inference[:strings.LastIndexByte(inference, '>')]
}

// canonTD renders d's tableau: rows of '.'-joined variable indices,
// antecedents joined by '&', then '>' and the conclusion.
func canonTD(d *td.TD) string {
	rows := d.Tableau().Rows()
	// Indices below 100 take at most three bytes with their separator.
	b := make([]byte, 0, 3*len(rows)*d.Schema().Width())
	for i, r := range rows {
		switch {
		case i == len(rows)-1:
			b = append(b, '>')
		case i > 0:
			b = append(b, '&')
		}
		for a, v := range r {
			if a > 0 {
				b = append(b, '.')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
	}
	return string(b)
}
