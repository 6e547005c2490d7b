package experiment

import (
	"context"
	"testing"
)

// TestAbortResumeReleasesFrames is the wheel/abort interaction regression
// on top of the full protocol stack: a run aborted mid-traffic — wheel
// slots, due list and heap all populated, pooled frames in flight — must,
// once the watchdog is disarmed, resume into exactly the run an
// uninterrupted engine produces: identical metrics fingerprint and
// identical frame-pool accounting (every pooled frame released exactly
// once, never twice, never leaked). Under `-tags framecheck` (the CI
// poisoning build) any use-after-release the abort path provokes fails
// loudly here.
func TestAbortResumeReleasesFrames(t *testing.T) {
	for _, proto := range []Protocol{RMAC, BMMM} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Protocol = proto
			// The liveness and invariant audits run once, in collect, after
			// the resumed run, so a mid-run abort never quiesces the auditor
			// and it stays attached for the bit-identity comparison.
			cancelAt := cfg.Horizon() / 2

			clean := build(cfg)
			eng := clean.stacks[0].eng
			eng.After(cancelAt, func() {}) // mirrors the ctx run's cancel trigger
			eng.Run(cfg.Horizon())
			want := clean.collect()
			wantFrames := want.Totals.FramePool
			if want.Aborted {
				t.Fatalf("clean run aborted: %s", want.AbortReason)
			}

			// Variant 1: event-budget abort mid-run, then resume.
			n := build(cfg)
			eng = n.stacks[0].eng
			eng.After(cancelAt, func() {})
			eng.SetWatchdog(want.Events/2, 0)
			eng.Run(cfg.Horizon())
			if _, aborted := eng.Aborted(); !aborted {
				t.Fatal("event budget did not abort the run")
			}
			if eng.Pending() == 0 {
				t.Fatal("abort left nothing pending; not a mid-cascade abort")
			}
			eng.SetWatchdog(0, 0)
			eng.Run(cfg.Horizon())
			got := n.collect()
			if got.Fingerprint() != want.Fingerprint() {
				t.Errorf("resumed run diverged from uninterrupted run:\n got %s\nwant %s",
					got.Fingerprint(), want.Fingerprint())
			}
			if gotFrames := got.Totals.FramePool; gotFrames != wantFrames {
				t.Errorf("frame pool accounting diverged after abort/resume:\n got %+v\nwant %+v",
					gotFrames, wantFrames)
			}

			// Variant 2: context cancellation mid-run, then resume.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c := build(cfg)
			eng = c.stacks[0].eng
			eng.SetContext(ctx)
			eng.After(cancelAt, cancel)
			eng.Run(cfg.Horizon())
			if _, aborted := eng.Aborted(); !aborted {
				t.Fatal("mid-run context cancel did not abort")
			}
			eng.SetContext(nil)
			eng.SetWatchdog(0, 0)
			eng.Run(cfg.Horizon())
			got = c.collect()
			if got.Fingerprint() != want.Fingerprint() {
				t.Errorf("ctx-aborted resumed run diverged from uninterrupted run:\n got %s\nwant %s",
					got.Fingerprint(), want.Fingerprint())
			}
			if gotFrames := got.Totals.FramePool; gotFrames != wantFrames {
				t.Errorf("frame pool accounting diverged after ctx abort/resume:\n got %+v\nwant %+v",
					gotFrames, wantFrames)
			}
		})
	}
}
