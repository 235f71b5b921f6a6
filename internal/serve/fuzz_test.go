package serve

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"templatedep/internal/relation"
	"templatedep/internal/td"
)

// FuzzParseRequest throws arbitrary /infer bodies at the wire parser,
// decoded the way handleInfer decodes them. It must never panic, and an
// accepted request must re-canonicalize to the Key and StateKey it was
// given: the keys ParseRequest derives from its one canonicalization must
// equal CanonInference/CanonChaseState (or CanonPresentation) computed on
// their own, and the same problem rendered again under fresh names and in
// reverse order must parse to the same keys. The seed corpus is in
// testdata/fuzz/FuzzParseRequest.
func FuzzParseRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req Request
		if dec.Decode(&req) != nil {
			return
		}
		p, err := ParseRequest(req)
		if err != nil {
			return
		}
		if p.Hash != keyDigest(p.Key) {
			t.Fatalf("hash %s is not the digest of key %q", p.Hash, p.Key)
		}
		var again Request
		if p.Pres != nil {
			if key := CanonPresentation(p.Pres.WithZeroEquations()); p.Key != key || p.StateKey != "" {
				t.Fatalf("presentation keys %q/%q, recomputed %q", p.Key, p.StateKey, key)
			}
			if strings.HasPrefix(p.Key, "presraw:") {
				return // too symmetric to canonicalize: the key keeps the names
			}
			again = renamedPresentation(p)
		} else {
			if key, state := CanonInference(p.Deps, p.Goal), CanonChaseState(p.Deps, p.Goal); p.Key != key || p.StateKey != state {
				t.Fatalf("td keys %q/%q, recomputed %q/%q", p.Key, p.StateKey, key, state)
			}
			again = renamedTDs(t, p)
		}
		q, err := ParseRequest(again)
		if err != nil {
			t.Fatalf("re-rendered request %+v rejected: %v", again, err)
		}
		if q.Key != p.Key || q.StateKey != p.StateKey {
			t.Fatalf("re-rendered request keys %q/%q, original %q/%q", q.Key, q.StateKey, p.Key, p.StateKey)
		}
	})
}

// renamedPresentation renders p's presentation with its symbols renamed
// s0..s(n-1) in reverse alphabet order, its equations reversed in order
// and orientation.
func renamedPresentation(p *Problem) Request {
	a := p.Pres.Alphabet
	n := a.Size()
	name := func(i int) string { return "s" + strconv.Itoa(n-1-i) }
	names := make([]string, n)
	for i := range names {
		names[n-1-i] = name(i)
	}
	word := func(w []int) string {
		parts := make([]string, len(w))
		for i, s := range w {
			parts[i] = name(s)
		}
		return strings.Join(parts, " ")
	}
	req := Request{Alphabet: names, A0: name(int(a.A0())), Zero: name(int(a.Zero()))}
	for i := len(p.Pres.Equations) - 1; i >= 0; i-- {
		e := p.Pres.Equations[i]
		req.Equations = append(req.Equations, word(symbolIDs(e.RHS))+" = "+word(symbolIDs(e.LHS)))
	}
	return req
}

// renamedTDs renders p's TD instance over attributes c0..c(w-1) with the
// dependency order reversed.
func renamedTDs(t *testing.T, p *Problem) Request {
	w := p.Goal.Schema().Width()
	names := make([]string, w)
	for i := range names {
		names[i] = "c" + strconv.Itoa(i)
	}
	s := relation.MustSchema(names...)
	render := func(d *td.TD) string {
		rows := d.Tableau().Rows()
		r, err := td.New(s, rows[:len(rows)-1], rows[len(rows)-1], "")
		if err != nil {
			t.Fatal(err)
		}
		return r.Format()
	}
	req := Request{Schema: names, Goal: render(p.Goal)}
	for i := len(p.Deps) - 1; i >= 0; i-- {
		req.Deps = append(req.Deps, render(p.Deps[i]))
	}
	return req
}
