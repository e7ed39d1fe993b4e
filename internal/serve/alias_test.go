package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// aliasHits reads the server's alias-hit counter.
func aliasHits(s *Server) int64 {
	return s.cfg.Registry.Counter("serve_cache_alias_hits_total").Value()
}

// TestAliasMatchesCanonical is the differential test of the request-
// byte alias: every spelling of a request gets, from a warm server, the
// status, body and digest a cold server computes for it, and a repeated
// spelling is answered from its alias. The spellings share a body but
// not a query, or share bytes but not a form, so an alias key that
// dropped the query or the form bit would serve one of them another's
// answer.
func TestAliasMatchesCanonical(t *testing.T) {
	const jsonCT = "application/json; charset=utf-8"
	envelope := `{"trace": ` + jsonString(canonicalText) + `, "capacity": 1.5, "heuristic": "OOLCMR"}`
	variants := []struct {
		name, target, ct, body string
	}{
		{"raw canonical", "/solve?capacity=1.5&heuristic=OOLCMR", "text/plain", canonicalText},
		{"messy encoding", "/solve?capacity=1.5&heuristic=OOLCMR", "text/plain", messyText},
		{"json envelope", "/solve", jsonCT, envelope},
		{"reordered query", "/solve?heuristic=OOLCMR&capacity=1.5", "text/plain", canonicalText},
		{"capacity spelling", "/solve?capacity=1.50&heuristic=OOLCMR", "text/plain", canonicalText},
		{"other timeout", "/solve?capacity=1.5&heuristic=OOLCMR&timeout_ms=5000", "text/plain", canonicalText},
		{"other capacity", "/solve?capacity=2&heuristic=OOLCMR", "text/plain", canonicalText},
		{"portfolio", "/solve?capacity=1.5", "text/plain", canonicalText},
		// The envelope's bytes as a raw trace: a 400, never the
		// envelope's answer.
		{"envelope bytes as raw", "/solve", "text/plain", envelope},
		{"envelope bytes, no type", "/solve", "", envelope},
	}

	warm := New(testConfig())
	h := warm.Handler()
	for _, v := range variants {
		cold := post(New(testConfig()).Handler(), v.target, v.ct, v.body)
		for round := 0; round < 2; round++ {
			before := aliasHits(warm)
			got := post(h, v.target, v.ct, v.body)
			if got.Code != cold.Code || !bytes.Equal(got.Body.Bytes(), cold.Body.Bytes()) {
				t.Fatalf("%s, round %d: warm server answered %d %s\ncold server answered %d %s",
					v.name, round, got.Code, got.Body.Bytes(), cold.Code, cold.Body.Bytes())
			}
			if g, c := got.Header().Get("X-Transched-Digest"), cold.Header().Get("X-Transched-Digest"); g != c {
				t.Fatalf("%s, round %d: digest %q, cold server's %q", v.name, round, g, c)
			}
			aliased := aliasHits(warm) > before
			if want := round == 1 && cold.Code == http.StatusOK; aliased != want {
				t.Errorf("%s, round %d: alias hit = %v, want %v", v.name, round, aliased, want)
			}
		}
	}
}

// TestAliasEvictedFallsBack: with room for one entry, a second instance
// evicts the first together with its alias, and the first request then
// takes the parse path again, re-solves, and answers as before.
func TestAliasEvictedFallsBack(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEntries = 1
	s := New(cfg)
	h := s.Handler()
	a, b := genTraceText(t, 31, 10), genTraceText(t, 32, 10)

	first := postRaw(h, "/solve", a)
	if first.Code != http.StatusOK {
		t.Fatalf("first solve: %d %s", first.Code, first.Body.String())
	}
	if rec := postRaw(h, "/solve", b); rec.Code != http.StatusOK {
		t.Fatalf("evicting solve: %d %s", rec.Code, rec.Body.String())
	}
	if n := len(s.cache.alias); n != 1 {
		t.Errorf("%d aliases after eviction, want only the resident entry's", n)
	}
	again := postRaw(h, "/solve", a)
	if again.Code != http.StatusOK || !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
		t.Fatalf("re-solve after eviction: %d %s", again.Code, again.Body.String())
	}
	if got := again.Header().Get("X-Transched-Cache"); got != "miss" {
		t.Errorf("request whose entry was evicted: cache %q, want miss", got)
	}
	if got := aliasHits(s); got != 0 {
		t.Errorf("alias hits = %d, want 0", got)
	}
	if rec := postRaw(h, "/solve", a); rec.Header().Get("X-Transched-Cache") != "hit" || aliasHits(s) != 1 {
		t.Errorf("repeat after the re-solve: cache %q, alias hits %d; want an alias hit",
			rec.Header().Get("X-Transched-Cache"), aliasHits(s))
	}
}

// TestAliasOnlyForStoredAnswers: a rejected request (400), an
// unschedulable one (422), a body too large for the cache and a server
// with caching disabled leave no alias behind, so each repeat takes the
// full path again.
func TestAliasOnlyForStoredAnswers(t *testing.T) {
	text := genTraceText(t, 41, 10)
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		target string
		code   int
	}{
		{"bad option", nil, "/solve?capacity=-1", http.StatusBadRequest},
		{"unschedulable", nil, "/solve?capacity=0.5", http.StatusUnprocessableEntity},
		{"oversized body", func(c *Config) { c.CacheBytes = 16 }, "/solve", http.StatusOK},
		{"cache disabled", func(c *Config) { c.CacheEntries = -1 }, "/solve", http.StatusOK},
	} {
		cfg := testConfig()
		if tc.mutate != nil {
			tc.mutate(&cfg)
		}
		s := New(cfg)
		h := s.Handler()
		for round := 0; round < 2; round++ {
			if rec := postRaw(h, tc.target, text); rec.Code != tc.code {
				t.Fatalf("%s, round %d: status %d, want %d: %s", tc.name, round, rec.Code, tc.code, rec.Body.String())
			}
		}
		if n := len(s.cache.alias); n != 0 || aliasHits(s) != 0 {
			t.Errorf("%s: %d aliases and %d alias hits, want none", tc.name, n, aliasHits(s))
		}
	}
}

// TestAliasBoundPerEntry: an entry keeps at most maxAliases spellings,
// dropping the oldest, and the dropped spelling still gets the same
// answer through the parse.
func TestAliasBoundPerEntry(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()
	text := genTraceText(t, 51, 10)
	target := func(i int) string { return fmt.Sprintf("/solve?timeout_ms=%d", 1000*(i+1)) }
	want := postRaw(h, target(0), text)
	for i := 1; i <= maxAliases; i++ {
		if rec := postRaw(h, target(i), text); !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("spelling %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	if n := len(s.cache.alias); n != maxAliases {
		t.Errorf("%d aliases on one entry, want %d", n, maxAliases)
	}
	rec := postRaw(h, target(0), text)
	if !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) || rec.Header().Get("X-Transched-Cache") != "hit" {
		t.Errorf("dropped spelling: %d cache %q", rec.Code, rec.Header().Get("X-Transched-Cache"))
	}
	if got := aliasHits(s); got != 0 {
		t.Errorf("alias hits = %d, want 0: the oldest spelling was dropped", got)
	}
}

// TestHitAllocs pins the cost of a repeated request: through the
// handler, with tracing off, an alias hit makes at most 64 heap
// allocations (the parse path made about 5,500 on a paper-size trace).
func TestHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not repeat under -race")
	}
	const runs = 50
	h := New(testConfig()).Handler()
	text := genTraceText(t, 61, 400)
	if rec := postRaw(h, "/solve?capacity=1.5", text); rec.Code != http.StatusOK {
		t.Fatalf("priming solve: %d %s", rec.Code, rec.Body.String())
	}
	reqs := make([]*http.Request, runs+1)
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/solve?capacity=1.5", strings.NewReader(text))
		reqs[i].Header.Set("Content-Type", "text/plain")
		recs[i] = httptest.NewRecorder()
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		h.ServeHTTP(recs[next], reqs[next])
		next++
	})
	for i, rec := range recs {
		if rec.Header().Get("X-Transched-Cache") != "hit" {
			t.Fatalf("request %d: %d, cache %q", i, rec.Code, rec.Header().Get("X-Transched-Cache"))
		}
	}
	t.Logf("%.0f allocations per hit", allocs)
	if allocs > 64 {
		t.Errorf("%.0f allocations per hit, want at most 64", allocs)
	}
}
