package experiment

import (
	"strings"
	"sync"
	"testing"

	"rmac/internal/geom"
	"rmac/internal/sim"
)

// smallConfig is a quick 20-node network for integration tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 20
	cfg.Field = geom.Rect{W: 250, H: 150}
	cfg.Rate = 10
	cfg.Packets = 40
	cfg.Warmup = 8 * sim.Second
	cfg.Drain = 8 * sim.Second
	return cfg
}

func TestRunRMACStationaryDelivers(t *testing.T) {
	res := Run(smallConfig())
	if res.Metrics.Generated != 40 {
		t.Fatalf("generated = %d", res.Metrics.Generated)
	}
	// §4.2.1: stationary RMAC delivery ratio is close to 1.
	if res.Delivery < 0.95 {
		t.Fatalf("RMAC stationary delivery = %.3f, want ≥0.95", res.Delivery)
	}
	if res.AvgDelay <= 0 || res.AvgDelay > 2 {
		t.Fatalf("avg delay = %v s", res.AvgDelay)
	}
	if res.NonLeafCount == 0 {
		t.Fatal("no forwarders detected")
	}
	if res.MRTSLens.N() == 0 {
		t.Fatal("no MRTS lengths collected")
	}
	if res.Tree.Reachable != 20 {
		t.Fatalf("final tree reaches %d/20", res.Tree.Reachable)
	}
}

func TestRunBMMMStationaryDelivers(t *testing.T) {
	cfg := smallConfig()
	cfg.Protocol = BMMM
	res := Run(cfg)
	if res.Delivery < 0.9 {
		t.Fatalf("BMMM stationary delivery = %.3f, want ≥0.9", res.Delivery)
	}
	if res.MRTSLens.N() != 0 {
		t.Fatal("BMMM must not record MRTS lengths")
	}
}

func TestRunBMWStationaryDelivers(t *testing.T) {
	cfg := smallConfig()
	cfg.Protocol = BMW
	cfg.Packets = 20
	res := Run(cfg)
	if res.Delivery < 0.85 {
		t.Fatalf("BMW stationary delivery = %.3f, want ≥0.85", res.Delivery)
	}
}

func TestRunMobileScenario(t *testing.T) {
	cfg := smallConfig()
	cfg.Scenario = Speed2
	cfg.Packets = 30
	res := Run(cfg)
	// Mobility costs delivery but the network must still mostly work.
	if res.Delivery < 0.3 {
		t.Fatalf("mobile delivery = %.3f, suspiciously low", res.Delivery)
	}
	if res.Metrics.Generated != 30 {
		t.Fatal("generation count")
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	cfg := smallConfig()
	cfg.Packets = 20
	a := Run(cfg)
	b := Run(cfg)
	if a.Delivery != b.Delivery || a.Events != b.Events || a.AvgRetxRatio != b.AvgRetxRatio {
		t.Fatalf("same seed diverged: %+v vs %+v", a.Delivery, b.Delivery)
	}
	cfg.Seed = 2
	c := Run(cfg)
	if a.Events == c.Events {
		t.Fatal("different seeds produced identical event counts (suspicious)")
	}
}

// TestRMACOutperformsBMMMUnderLoad pins the paper's headline comparison on
// a small network at a saturating rate: RMAC must deliver at least as much
// as BMMM and spend less on control overhead (Figures 7 and 11).
func TestRMACOutperformsBMMMUnderLoad(t *testing.T) {
	base := smallConfig()
	base.Rate = 60
	base.Packets = 120

	r := base
	r.Protocol = RMAC
	rmacRes := Run(r)
	b := base
	b.Protocol = BMMM
	bmmmRes := Run(b)

	if rmacRes.Delivery < bmmmRes.Delivery-0.02 {
		t.Fatalf("delivery: RMAC %.3f < BMMM %.3f", rmacRes.Delivery, bmmmRes.Delivery)
	}
	if rmacRes.AvgOverheadRatio >= bmmmRes.AvgOverheadRatio {
		t.Fatalf("overhead: RMAC %.3f >= BMMM %.3f", rmacRes.AvgOverheadRatio, bmmmRes.AvgOverheadRatio)
	}
	if rmacRes.AvgDelay > bmmmRes.AvgDelay*1.5 {
		t.Fatalf("delay: RMAC %.3f vs BMMM %.3f", rmacRes.AvgDelay, bmmmRes.AvgDelay)
	}
}

func TestSweepAggregatesCells(t *testing.T) {
	base := smallConfig()
	base.Packets = 15
	s := Sweep{
		Base:      base,
		Protocols: []Protocol{RMAC, BMMM},
		Scenarios: []Scenario{Stationary},
		Rates:     []float64{10, 20},
		Seeds:     2,
	}
	// Workers call Progress concurrently and in no fixed order, so keep
	// the highest count reported.
	var mu sync.Mutex
	var progress int
	s.Progress = func(done, total int) {
		mu.Lock()
		progress = max(progress, done)
		mu.Unlock()
		if total != 8 {
			t.Errorf("total = %d, want 8", total)
		}
	}
	points := RunSweep(s)
	if len(points) != s.Cells() || s.Cells() != 4 {
		t.Fatalf("points = %d", len(points))
	}
	if progress != 8 {
		t.Fatalf("progress = %d", progress)
	}
	for _, p := range points {
		if len(p.Runs) != 2 {
			t.Fatalf("cell %v/%v/%v has %d runs", p.Protocol, p.Scenario, p.Rate, len(p.Runs))
		}
		if p.Delivery <= 0 || p.Delivery > 1 {
			t.Fatalf("delivery out of range: %v", p.Delivery)
		}
	}
	// Order: protocol-major, then scenario, then rate.
	if points[0].Protocol != RMAC || points[0].Rate != 10 || points[1].Rate != 20 {
		t.Fatalf("ordering wrong: %+v", points[:2])
	}
	if points[2].Protocol != BMMM {
		t.Fatal("protocol ordering wrong")
	}
}

// TestSweepSamePlacementAcrossProtocols verifies the §4.1.2 methodology:
// "each set of ten experiments is done for RMAC and BMMM respectively with
// identical node placements" — same seed index, same scenario, same tree.
func TestSweepSamePlacementAcrossProtocols(t *testing.T) {
	base := smallConfig()
	base.Packets = 10
	s := Sweep{
		Base:      base,
		Protocols: []Protocol{RMAC, BMMM},
		Scenarios: []Scenario{Stationary},
		Rates:     []float64{10},
		Seeds:     1,
	}
	points := RunSweep(s)
	a, b := points[0].Runs[0], points[1].Runs[0]
	if a.Config.Seed != b.Config.Seed {
		t.Fatalf("seeds differ: %d vs %d", a.Config.Seed, b.Config.Seed)
	}
}

func TestFigureSpecs(t *testing.T) {
	figs := Figures()
	if len(figs) != 7 {
		t.Fatalf("figure count = %d, want 7 (fig7..fig13)", len(figs))
	}
	ids := map[string]bool{}
	for _, f := range figs {
		ids[f.ID] = true
		if f.Value == nil || f.Title == "" || len(f.Protocols) == 0 {
			t.Fatalf("incomplete figure spec %+v", f)
		}
	}
	for _, want := range []string{"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"} {
		if !ids[want] {
			t.Fatalf("missing %s", want)
		}
	}
	if _, err := FigureByID("fig7"); err != nil {
		t.Fatal(err)
	}
	if _, err := FigureByID("nope"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestReportRendering(t *testing.T) {
	p := Point{Protocol: RMAC, Scenario: Stationary, Rate: 20, Delivery: 0.99}
	q := Point{Protocol: BMMM, Scenario: Stationary, Rate: 20, Delivery: 0.80}
	fig, _ := FigureByID("fig7")
	var sb strings.Builder
	WriteFigureTable(&sb, fig, []Point{p, q}, []Scenario{Stationary})
	out := sb.String()
	for _, want := range []string{"FIG7", "stationary", "RMAC", "BMMM", "0.9900", "0.8000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	var csv strings.Builder
	if err := WriteCSV(&csv, []Point{p, q}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "protocol,scenario,rate") || !strings.Contains(csv.String(), "RMAC,stationary,20") {
		t.Fatalf("csv:\n%s", csv.String())
	}
}

func TestConfigHelpers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rate = 10
	cfg.Packets = 100
	wantHorizon := cfg.Warmup + 10*sim.Second + cfg.Drain
	if cfg.Horizon() != wantHorizon {
		t.Fatalf("horizon = %v, want %v", cfg.Horizon(), wantHorizon)
	}
	if RMAC.String() != "RMAC" || BMMM.String() != "BMMM" || BMW.String() != "BMW" {
		t.Fatal("protocol names")
	}
	if Stationary.String() != "stationary" || Speed1.MaxSpeed() != 4 || Speed2.Pause() != 5*sim.Second {
		t.Fatal("scenario params")
	}
	if len(PaperRates) != 8 || PaperRates[7] != 120 {
		t.Fatal("paper rates")
	}
}
