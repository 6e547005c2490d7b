package experiment

import (
	"fmt"

	"rmac/internal/fault"
	"rmac/internal/geom"
	"testing"
)

// goldenConfig is a reduced-scale but fully representative RMAC run: a
// multi-hop tree with real contention, enough packets for retransmissions
// and aborts to occur. Small enough to run in well under a second.
func goldenConfig() Config {
	cfg := DefaultConfig()
	cfg.Protocol = RMAC
	cfg.Scenario = Stationary
	cfg.Nodes = 30
	cfg.Field = geom.Rect{W: 320, H: 200}
	cfg.Packets = 200
	cfg.Rate = 40
	cfg.Seed = 12345
	return cfg
}

// goldenGridConfig is the same run at a network size past the spatial-grid
// threshold (96 radios), so the grid fan-out path is pinned too.
func goldenGridConfig() Config {
	cfg := goldenConfig()
	cfg.Nodes = 120
	cfg.Field = geom.Rect{W: 500, H: 400}
	cfg.Packets = 60
	return cfg
}

// goldenMXConfig is the golden run under 802.11MX, pinning the sender's
// NAK-window tone meter reading alongside RMAC's RBT/ABT windows.
func goldenMXConfig() Config {
	cfg := goldenConfig()
	cfg.Protocol = MX
	return cfg
}

// goldenUnder is cfg run by another MAC, so the DCF baselines are pinned
// on the same placements and traffic as RMAC.
func goldenUnder(cfg Config, p Protocol) Config {
	cfg.Protocol = p
	return cfg
}

// goldenGridMobileConfig is the grid-sized run with mobile radios, so the
// spatial grid's periodic rebuild is pinned as well as its static build.
func goldenGridMobileConfig() Config {
	cfg := goldenGridConfig()
	cfg.Scenario = Speed2
	return cfg
}

// goldenFaultConfig is the golden run with the impairment layer switched
// on — Gilbert–Elliott bursts erasing 20% of the timeline and nodes that
// are up 90% of the time — pinning the fault layer's RNG consumption and
// crash scheduling alongside the protocol behaviour they provoke.
func goldenFaultConfig() Config {
	cfg := goldenConfig()
	cfg.Fault = fault.Config{Burst: fault.BurstAt(0.2), Churn: fault.ChurnAt(0.9)}
	return cfg
}

// goldenSplitConfig is the golden run with a §3.4 receiver limit of 2:
// RMAC splits every longer destination list into Reliable Send batches,
// separated by backoff, that share one sequence number.
func goldenSplitConfig() Config {
	cfg := goldenConfig()
	cfg.Limits.MaxReceivers = 2
	return cfg
}

// goldenNoRBTConfig is the golden run with RMAC's hidden-node protection
// ablated (rmac.Options.DisableRBTProtection): no deference to, and no
// abort on, a foreign RBT.
func goldenNoRBTConfig() Config {
	cfg := goldenConfig()
	cfg.RMACOptions.DisableRBTProtection = true
	return cfg
}

// goldenFaultString extends goldenString with the impairment counters.
func goldenFaultString(r RunResult) string {
	return fmt.Sprintf("%s bursterr=%d badentries=%d crashes=%d recoveries=%d deadlocks=%d",
		goldenString(r), r.Fault.BurstErrors, r.Fault.BadEntries, r.Crashes,
		r.Fault.Recoveries, len(r.Deadlocks))
}

// goldenString reduces a RunResult to the fields every figure is computed
// from, formatted with full float precision so any drift is visible.
func goldenString(r RunResult) string {
	return fmt.Sprintf(
		"events=%d gen=%d rx=%d dup=%d deliv=%.17g delay=%.17g drop=%.17g retx=%.17g ovh=%.17g nonleaf=%d mrts_n=%d abort_n=%d reach=%d",
		r.Events, r.Metrics.Generated, r.Metrics.Receptions, r.Metrics.Duplicates,
		r.Delivery, r.AvgDelay, r.AvgDropRatio, r.AvgRetxRatio, r.AvgOverheadRatio,
		r.NonLeafCount, r.MRTSLens.N(), r.AbortRatios.N(), r.Tree.Reachable)
}

// Golden values produced by the pre-pooling seed kernel (container/heap
// engine, per-event allocations). The pooled kernel must reproduce them
// bit-identically: pooling recycles memory but must not change the event
// schedule, the (time, seq) execution order, or the RNG consumption.
//
// The event counts were re-pinned once, when the backoff countdown went
// from one timer event per idle slot to one per countdown; every other
// field kept its seed-kernel value.
//
// To refresh after an intentional behaviour change, run
//
//	go test ./internal/experiment -run TestGoldenDeterminism -v
//
// and copy the "got:" lines printed on mismatch.
const (
	goldenStationary = "events=256219 gen=200 rx=5783 dup=0 deliv=0.99706896551724133 delay=0.010149750000000001 drop=0 retx=0.12833333333333333 ovh=0.1991675194619906 nonleaf=12 mrts_n=2708 abort_n=12 reach=30"
	goldenGrid       = "events=517950 gen=60 rx=6959 dup=0 deliv=0.97464985994397757 delay=0.139179626 drop=0.0016878531073446328 retx=0.36548022598870056 ovh=0.22847831986517395 nonleaf=40 mrts_n=3208 abort_n=40 reach=120"
	// goldenFault pins the impairment layer: same run as goldenStationary
	// but with bursty loss and churn enabled, so any drift in the GE chain
	// advancement, churn scheduling, or crash semantics shows up here.
	goldenFault = "events=290148 gen=200 rx=4771 dup=0 deliv=0.82258620689655171 delay=0.734644046 drop=0.10764765045303065 retx=1.7330833580432325 ovh=0.21918798901650646 nonleaf=11 mrts_n=5236 abort_n=11 reach=30 bursterr=4848 badentries=14914 crashes=279 recoveries=274 deadlocks=0"
	// goldenMX and goldenGridMobile were recorded before the tone log and
	// the hashed grid gave way to cumulative tone meters and the sorted
	// cell index, which must reproduce them bit-identically.
	goldenMX = "events=165299 gen=200 rx=5633 dup=7618 deliv=0.9712068965517241 delay=0.0099776099999999996 drop=0 retx=0.19508896436300152 ovh=0.30369259250930269 nonleaf=12 mrts_n=0 abort_n=12 reach=30"
	// The DCF baselines on goldenConfig and goldenFaultConfig, pinned so a
	// change to the MAC code they share shows up under every protocol.
	goldenBMMM       = "events=477700 gen=200 rx=5797 dup=152 deliv=0.99948275862068969 delay=0.38596240399999998 drop=0.015769230769230771 retx=0.64431001159644374 ovh=1.5200718085617857 nonleaf=13 mrts_n=0 abort_n=13 reach=30"
	goldenBMW        = "events=348865 gen=200 rx=5800 dup=7395 deliv=1 delay=0.46961636600000001 drop=0.0029166666666666664 retx=0.71916666666666673 ovh=0.54799713357616342 nonleaf=12 mrts_n=0 abort_n=12 reach=30"
	goldenLBP        = "events=439516 gen=200 rx=5089 dup=7636 deliv=0.87741379310344825 delay=1.0435910159999999 drop=0.059437477883934886 retx=1.6552974610757254 ovh=0.31885230867974018 nonleaf=12 mrts_n=0 abort_n=12 reach=30"
	goldenDOT11      = "events=113788 gen=200 rx=5242 dup=1841 deliv=0.9037931034482759 delay=0.0096411129999999998 drop=0 retx=0.032025251266088968 ovh=0.1471731133506459 nonleaf=12 mrts_n=0 abort_n=12 reach=30"
	goldenFaultBMMM  = "events=488173 gen=200 rx=4194 dup=0 deliv=0.72310344827586204 delay=2.6919656509999998 drop=0.16189691561259212 retx=2.1566452343287232 ovh=0.73220970157981891 nonleaf=11 mrts_n=0 abort_n=11 reach=30 bursterr=6897 badentries=14872 crashes=315 recoveries=309 deadlocks=0"
	goldenFaultBMW   = "events=330669 gen=200 rx=4318 dup=3460 deliv=0.74448275862068969 delay=1.94232151 drop=0.14743006392200217 retx=2.0693043594225258 ovh=0.4935996105248272 nonleaf=11 mrts_n=0 abort_n=11 reach=30 bursterr=5437 badentries=14953 crashes=301 recoveries=296 deadlocks=0"
	goldenFaultLBP   = "events=432828 gen=200 rx=3323 dup=3270 deliv=0.57293103448275862 delay=2.2260021270000001 drop=0.33642413965897472 retx=3.7883251631146764 ovh=0.33599002142369089 nonleaf=11 mrts_n=0 abort_n=11 reach=30 bursterr=5596 badentries=14944 crashes=294 recoveries=293 deadlocks=0"
	goldenFaultMX    = "events=183097 gen=200 rx=2535 dup=1860 deliv=0.43706896551724139 delay=0.181949154 drop=0.057317806094249815 retx=1.8729592406984528 ovh=0.24936074194442084 nonleaf=11 mrts_n=0 abort_n=11 reach=30 bursterr=3211 badentries=14836 crashes=292 recoveries=289 deadlocks=0"
	goldenFaultDOT11 = "events=55267 gen=200 rx=2810 dup=1551 deliv=0.48448275862068968 delay=0.0075762370000000004 drop=0.032131329903272596 retx=0.41584755146943825 ovh=0.11269260477672577 nonleaf=11 mrts_n=0 abort_n=11 reach=30 bursterr=1679 badentries=14818 crashes=294 recoveries=288 deadlocks=0"
	// goldenSplit and goldenNoRBT pin RMAC's §3.4 batching and its
	// RBT-protection ablation; both were recorded before RMAC moved onto
	// the shared MAC node.
	goldenSplit      = "events=276333 gen=200 rx=5084 dup=0 deliv=0.87655172413793103 delay=0.099591937000000005 drop=0.00053418803418803413 retx=0.32608250620347395 ovh=0.16332549827802886 nonleaf=12 mrts_n=4010 abort_n=12 reach=30"
	goldenNoRBT      = "events=275719 gen=200 rx=5800 dup=0 deliv=1 delay=0.0094678379999999993 drop=0 retx=0.47833333333333333 ovh=0.20454351336781296 nonleaf=12 mrts_n=3548 abort_n=12 reach=30"
	goldenGridMobile = "events=519687 gen=60 rx=3947 dup=0 deliv=0.55280112044817931 delay=1.0257260399999999 drop=0.27601985152372743 retx=2.0473391782331825 ovh=1.0088576259248709 nonleaf=45 mrts_n=4757 abort_n=45 reach=120"
)

// TestGoldenDeterminism pins the fixed-seed RunResult of a full RMAC run
// against values recorded from the seed (pre-pooling) kernel, proving the
// pooled event kernel and pooled PHY fan-out are behaviour-preserving.
func TestGoldenDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"stationary-30", goldenConfig(), goldenStationary},
		{"grid-120", goldenGridConfig(), goldenGrid},
		{"fault-30", goldenFaultConfig(), goldenFault},
		{"mx-30", goldenMXConfig(), goldenMX},
		{"grid-120-speed2", goldenGridMobileConfig(), goldenGridMobile},
		{"bmmm-30", goldenUnder(goldenConfig(), BMMM), goldenBMMM},
		{"bmw-30", goldenUnder(goldenConfig(), BMW), goldenBMW},
		{"lbp-30", goldenUnder(goldenConfig(), LBP), goldenLBP},
		{"dot11-30", goldenUnder(goldenConfig(), DOT11), goldenDOT11},
		{"fault-30-bmmm", goldenUnder(goldenFaultConfig(), BMMM), goldenFaultBMMM},
		{"fault-30-bmw", goldenUnder(goldenFaultConfig(), BMW), goldenFaultBMW},
		{"fault-30-lbp", goldenUnder(goldenFaultConfig(), LBP), goldenFaultLBP},
		{"fault-30-mx", goldenUnder(goldenFaultConfig(), MX), goldenFaultMX},
		{"fault-30-dot11", goldenUnder(goldenFaultConfig(), DOT11), goldenFaultDOT11},
		{"split-30", goldenSplitConfig(), goldenSplit},
		{"norbt-30", goldenNoRBTConfig(), goldenNoRBT},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := Run(tc.cfg)
			got := goldenString(r)
			if tc.cfg.Fault.Enabled() {
				got = goldenFaultString(r)
			}
			// A split row pins batching only if some node forwards to
			// more children than the receiver limit.
			if lim := tc.cfg.Limits.MaxReceivers; lim < DefaultConfig().Limits.MaxReceivers && r.Tree.Children.Max <= float64(lim) {
				t.Errorf("no node has more than %d children: no packet splits into batches", lim)
			}
			if got != tc.want {
				t.Errorf("fixed-seed run drifted from seed kernel\n got: %s\nwant: %s", got, tc.want)
			}
			requireNoBusyTicks(t, r)
		})
	}
}

// requireNoBusyTicks fails t if a backoff countdown of r took its re-poll
// path: every MAC calls Suspend on each busy edge, so no countdown may
// expire on a busy channel.
func requireNoBusyTicks(t *testing.T, r RunResult) {
	t.Helper()
	if r.BusyTicks != 0 {
		t.Errorf("%d backoff expiries found the channel busy without a Suspend", r.BusyTicks)
	}
}

// TestSeedDeterminismRegression verifies that two runs with identical
// configuration produce identical results — including under mobility,
// where the random-waypoint streams and the lazy spatial grid interact
// with event ordering.
func TestSeedDeterminismRegression(t *testing.T) {
	for _, sc := range []Scenario{Stationary, Speed1} {
		sc := sc
		t.Run(sc.String(), func(t *testing.T) {
			cfg := goldenConfig()
			cfg.Scenario = sc
			cfg.Packets = 80
			a := goldenString(Run(cfg))
			b := goldenString(Run(cfg))
			if a != b {
				t.Errorf("identical-seed runs diverged\nfirst:  %s\nsecond: %s", a, b)
			}
		})
	}
}
