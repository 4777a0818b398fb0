package cmdutil

import (
	"slices"
	"testing"

	"repro/internal/store"
)

// FuzzLoadFacts pins LoadFacts on arbitrary text: no panic, and on
// success the relations it returns are distinct, each was asserted, and
// together they are every relation the store holds.
func FuzzLoadFacts(f *testing.F) {
	for _, seed := range []string{
		"",
		"# comment only\n",
		"passwords alice\npasswords bob   # trailing comment\n",
		"registered dr_a p1\nregistered dr_a p2\n\n",
		"registered u0001\nregistered u0002\n", // the benchmark's facts shape
		"n 42 -7 \"quoted text\"\n",
		"rel (((\n",
		"rel X\n",
		"\t  \r\nrel a\r\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		db := store.New()
		rels, err := LoadFacts(db, text)
		if err != nil {
			return
		}
		seen := make(map[string]bool, len(rels))
		for _, r := range rels {
			if seen[r] {
				t.Fatalf("relation %q returned twice for %q", r, text)
			}
			seen[r] = true
			if db.Count(r) == 0 {
				t.Fatalf("relation %q returned but holds no fact, for %q", r, text)
			}
		}
		sorted := slices.Clone(rels)
		slices.Sort(sorted)
		if all := db.Relations(); !slices.Equal(sorted, all) {
			t.Fatalf("returned relations %q, store holds %q, for %q", sorted, all, text)
		}
	})
}
