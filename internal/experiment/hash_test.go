package experiment

import (
	"context"
	"strings"
	"testing"
)

func TestCacheKeyDiscriminates(t *testing.T) {
	a := smallConfig()
	b := smallConfig()
	if a.CacheKey() != b.CacheKey() {
		t.Error("equal configs produced different cache keys")
	}
	b.Seed++
	if a.CacheKey() == b.CacheKey() {
		t.Error("different seeds share a cache key")
	}
	c := smallConfig()
	c.Protocol = BMMM
	if a.CacheKey() == c.CacheKey() {
		t.Error("different protocols share a cache key")
	}
	if len(a.CacheKey()) != 64 {
		t.Errorf("cache key %q is not a hex SHA-256", a.CacheKey())
	}
}

func TestFingerprintStableAcrossRuns(t *testing.T) {
	cfg := smallConfig()
	a := Run(cfg)
	b := RunCtx(context.Background(), cfg)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical-seed runs fingerprint differently (ctx hook is not free)")
	}
	cfg.Seed++
	c := Run(cfg)
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different-seed runs share a fingerprint")
	}
}

func TestOutcomeIgnoresEventCount(t *testing.T) {
	a := Run(smallConfig())
	b := a
	b.Events++
	if a.Outcome() != b.Outcome() {
		t.Error("Outcome depends on the event count")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("Fingerprint ignores the event count")
	}
	b.Metrics.Receptions++
	if a.Outcome() == b.Outcome() {
		t.Error("Outcome ignores a measurement")
	}
}

func TestRunCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := RunCtx(ctx, smallConfig())
	if res.Failed {
		t.Fatalf("canceled run reported Failed: %s", res.FailReason)
	}
	if !res.Aborted {
		t.Fatal("pre-canceled context did not abort the run")
	}
	if !strings.Contains(res.AbortReason, "context canceled") {
		t.Errorf("AbortReason = %q, want a context-canceled message", res.AbortReason)
	}
	if res.Events != 0 {
		t.Errorf("pre-canceled run dispatched %d events", res.Events)
	}
}
