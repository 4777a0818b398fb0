package policy

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestLexerNeverPanics throws structured noise at the full parser: any
// input must either parse or return a SyntaxError — never panic, never
// hang. (A seed-corpus fuzz in spirit, kept deterministic so it runs in
// every `go test`.)
func TestParserNeverPanics(t *testing.T) {
	fragments := []string{
		"a.b", "<-", "env", "appt", "auth", "keep", "(", ")", "[", "]",
		",", ".", "!", "X", "x", "42", "-7", `"str"`, "#c\n", " ", "\n",
		"<", "-", `"unterminated`, "_v", "a.b(X)", "keep [1]", "..",
		"\x00", "é", "日本",
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		var b strings.Builder
		for n := rng.Intn(12); n >= 0; n-- {
			b.WriteString(fragments[rng.Intn(len(fragments))])
		}
		src := b.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			pol, err := Parse(src)
			if err == nil {
				// Anything that parses must round-trip.
				for _, rule := range pol.Rules {
					if _, err := Parse(rule.String()); err != nil {
						t.Fatalf("rule %q from %q does not re-parse: %v", rule, src, err)
					}
				}
			}
		}()
	}
}

// TestParserRandomBytes feeds raw (often invalid UTF-8) byte soup.
func TestParserRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(64)
		raw := make([]byte, n)
		for j := range raw {
			raw[j] = byte(rng.Intn(256))
		}
		src := string(raw)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %d bytes (valid utf8: %v): %v",
						n, utf8.ValidString(src), r)
				}
			}()
			Parse(src) //nolint:errcheck // only absence of panic matters
		}()
	}
}

// FuzzParse holds Parse to TestParserNeverPanics' property on arbitrary
// text: no panic; a rejection is a *SyntaxError, or — for text that
// parses but names an unbound variable or a keep index past the body —
// Rule.Validate's error, which names the rule; and every accepted rule
// re-parses from its String().
func FuzzParse(f *testing.F) {
	for _, frag := range []string{
		"a.b", "<-", "env", "appt", "auth", "keep", "(", ")", "[", "]",
		",", ".", "!", "X", "x", "42", "-7", `"str"`, "#c\n", " ", "\n",
		"<", "-", `"unterminated`, "_v", "a.b(X)", "keep [1]", "..",
		"\x00", "é", "日本",
		// The benchmark's two policies.
		"login.user(U) <- env registered(U).\n",
		"files.reader(U) <- login.user(U), env registered(U) keep [1].\n",
	} {
		f.Add(frag)
	}
	f.Fuzz(func(t *testing.T, src string) {
		pol, err := Parse(src)
		if err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) && !strings.HasPrefix(err.Error(), "rule ") {
				t.Fatalf("Parse(%q) = %v (%T): neither a syntax nor a rule error", src, err, err)
			}
			return
		}
		for _, rule := range pol.Rules {
			if _, err := Parse(rule.String()); err != nil {
				t.Fatalf("rule %q from %q does not re-parse: %v", rule, src, err)
			}
		}
		for _, rule := range pol.Auth {
			if _, err := Parse(rule.String()); err != nil {
				t.Fatalf("auth rule %q from %q does not re-parse: %v", rule, src, err)
			}
		}
	})
}
