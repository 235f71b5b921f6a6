package td_test

import (
	"strings"
	"testing"

	"templatedep/internal/reduction"
	"templatedep/internal/relation"
	"templatedep/internal/td"
	"templatedep/internal/words"
)

// nilpotentText returns the reduction of nilpotent:30 (the widest td-cold
// instance a tdserve request carries) as the TD text a request sends:
// its schema, one line per dependency, and the TD values themselves.
func nilpotentText(tb testing.TB) (*relation.Schema, string, []*td.TD) {
	tb.Helper()
	p, err := words.Preset("nilpotent:30")
	if err != nil {
		tb.Fatal(err)
	}
	in, err := reduction.Build(p)
	if err != nil {
		tb.Fatal(err)
	}
	lines := make([]string, len(in.D))
	for i, d := range in.D {
		lines[i] = d.Format()
	}
	return in.Schema, strings.Join(lines, "\n"), in.D
}

func BenchmarkParseSet(b *testing.B) {
	s, text, _ := nilpotentText(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := td.ParseSet(s, text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFormat(b *testing.B) {
	_, text, deps := nilpotentText(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, d := range deps {
			_ = d.Format()
		}
	}
}

// parseSetAllocsPerTD caps ParseSet's heap allocations per dependency on
// the nilpotent:30 reduction at twice the 13 measured with one token map
// per TD. The parser with a map per column allocated 307 per TD; going
// back to per-column maps, or to a split per atom, fails here.
const parseSetAllocsPerTD = 26

func TestParseSetAllocsPerTD(t *testing.T) {
	s, text, deps := nilpotentText(t)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := td.ParseSet(s, text); err != nil {
			t.Fatal(err)
		}
	})
	perTD := allocs / float64(len(deps))
	t.Logf("ParseSet: %.0f allocations for %d TDs (%.2f per TD)", allocs, len(deps), perTD)
	if perTD > parseSetAllocsPerTD {
		t.Fatalf("ParseSet allocates %.2f times per TD on nilpotent:30, cap %d", perTD, parseSetAllocsPerTD)
	}
}
