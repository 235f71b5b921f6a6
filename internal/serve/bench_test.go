package serve_test

import (
	"testing"

	"templatedep/internal/reduction"
	"templatedep/internal/serve"
	"templatedep/internal/words"
)

// BenchmarkParseRequest parses and canonicalizes the TD-level request for
// the reduction of nilpotent:30, the widest td-cold instance.
func BenchmarkParseRequest(b *testing.B) {
	p, err := words.Preset("nilpotent:30")
	if err != nil {
		b.Fatal(err)
	}
	in, err := reduction.Build(p)
	if err != nil {
		b.Fatal(err)
	}
	req := serve.Request{Schema: in.Schema.Names(), Goal: in.D0.Format()}
	size := len(req.Goal)
	for _, d := range in.D {
		req.Deps = append(req.Deps, d.Format())
		size += len(req.Deps[len(req.Deps)-1])
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := serve.ParseRequest(req); err != nil {
			b.Fatal(err)
		}
	}
}
