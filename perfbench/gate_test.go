package main

import (
	"context"
	"slices"
	"testing"
	"time"

	"acobe/internal/cert"
	"acobe/internal/features"
	"acobe/pkg/acobe"
	"acobe/pkg/acobe/daemon"
)

// gateFixture is a small served day stream plus its batch-pipeline twin:
// 20 users, ω=4, 𝒟=3, a tiny model.
type gateFixture struct {
	ids, groups []string
	member      []int
	cfg         acobe.DeviationConfig
	days        [][]daemon.Event
	batch       *features.Extractor
}

const (
	fixDays            = 10
	fixFitFrom         = cert.Day(5) // first matrix day: (ω-1) + (𝒟-1)
	fixFitTo           = cert.Day(6)
	fixFrom, fixTo     = cert.Day(7), cert.Day(fixDays - 1)
	fixWithheldDay     = cert.Day(4)
	fixWithheldBatchSz = 50
)

func newGateFixture(t *testing.T) *gateFixture {
	t.Helper()
	gen, err := cert.New(cert.SmallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	fx := &gateFixture{
		groups: gen.Departments(),
		cfg:    acobe.DeviationConfig{Window: 4, MatrixDays: 3, Delta: 3, Epsilon: 1, Weighted: true},
	}
	dept := map[string]int{}
	for i, d := range fx.groups {
		dept[d] = i
	}
	for _, u := range gen.Users() {
		fx.ids = append(fx.ids, u.ID)
		fx.member = append(fx.member, dept[u.Department])
	}
	if fx.batch, err = features.NewExtractor(fx.ids, 0, 0); err != nil {
		t.Fatal(err)
	}
	for d := cert.Day(0); d < fixDays; d++ {
		var certs []cert.Event
		for _, u := range gen.Users() {
			certs = append(certs, gen.UserDay(u, d)...)
		}
		if err := fx.batch.Table().EnsureDay(d); err != nil {
			t.Fatal(err)
		}
		if err := fx.batch.Consume(d, certs); err != nil {
			t.Fatal(err)
		}
		evs := make([]daemon.Event, len(certs))
		for i := range certs {
			evs[i].Cert = &certs[i]
		}
		fx.days = append(fx.days, evs)
	}
	return fx
}

// serve feeds the fixture to a fresh 2-shard daemon, leaving out the
// first withheld events of fixWithheldDay, and fits it. It returns the
// daemon and the number of events generated.
func (fx *gateFixture) serve(t *testing.T, withheld int) (*daemon.Server, int64) {
	t.Helper()
	ctx := context.Background()
	srv, _, err := daemon.Start(daemon.Config{
		Users: fx.ids, Groups: fx.groups, Membership: fx.member, Deviation: fx.cfg,
		DetectorOptions: []acobe.Option{
			acobe.WithAspects(acobe.ACOBEAspects()...),
			acobe.WithSeed(7),
			acobe.WithVotes(3),
			acobe.WithTrainStride(2),
			acobe.WithModelConfig(func(dim int) acobe.ModelConfig {
				mc := acobe.FastModelConfig(dim)
				mc.Hidden, mc.Epochs = []int{8, 4}, 2
				return mc
			}),
		},
	}, daemon.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	var generated int64
	for d, evs := range fx.days {
		generated += int64(len(evs))
		if cert.Day(d) == fixWithheldDay {
			evs = evs[withheld:]
		}
		if err := srv.Submit(ctx, evs); err != nil {
			t.Fatal(err)
		}
		if err := srv.CloseDay(ctx, cert.Day(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Retrain(ctx, fixFitFrom, fixFitTo, true); err != nil {
		t.Fatal(err)
	}
	return srv, generated
}

// rankGate is the benchmark's final-rank gate over the fixture.
func (fx *gateFixture) rankGate(t *testing.T, srv *daemon.Server, perturb func([]acobe.Ranked)) string {
	t.Helper()
	ctx := context.Background()
	ind, grp, err := batchFields(fx.batch.Table(), fx.cfg, fx.groups, fx.member)
	if err != nil {
		t.Fatal(err)
	}
	want, err := batchRanking(ctx, srv.Detector(), ind, grp, fx.member, fixFrom, fixTo)
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.Rank(ctx, fixFrom, fixTo)
	if err != nil {
		t.Fatal(err)
	}
	if perturb != nil {
		perturb(got)
	}
	return rankingDiff(got, want)
}

func TestGate(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	fx := newGateFixture(t)
	honest, generated := fx.serve(t, 0)

	t.Run("honest run passes", func(t *testing.T) {
		if p := statusProblems(honest.Status(), generated, fixDays-1); len(p) != 0 {
			t.Fatalf("status gate failed on an honest run: %v", p)
		}
		if diff := fx.rankGate(t, honest, nil); diff != "" {
			t.Fatalf("rank gate failed on an honest run: %s", diff)
		}
	})
	t.Run("perturbed ranking fails", func(t *testing.T) {
		perturbations := map[string]func([]acobe.Ranked){
			"swapped rows":     func(r []acobe.Ranked) { r[0], r[1] = r[1], r[0] },
			"changed priority": func(r []acobe.Ranked) { r[len(r)-1].Priority++ },
			"changed rank": func(r []acobe.Ranked) {
				r[3].Ranks = append(slices.Clone(r[3].Ranks[:1]), r[3].Ranks[1]+1, r[3].Ranks[2])
			},
			"dropped last row":  func(r []acobe.Ranked) { r[len(r)-1] = acobe.Ranked{} },
			"renamed first row": func(r []acobe.Ranked) { r[0].User += "x" },
		}
		for name, p := range perturbations {
			if diff := fx.rankGate(t, honest, p); diff == "" {
				t.Errorf("%s: rank gate passed a perturbed ranking", name)
			}
		}
	})
	t.Run("withheld batch fails", func(t *testing.T) {
		short, generated := fx.serve(t, fixWithheldBatchSz)
		if p := statusProblems(short.Status(), generated, fixDays-1); len(p) == 0 {
			t.Fatal("status gate passed a run with a withheld batch")
		}
	})
}

func TestRankingDiffLength(t *testing.T) {
	a := []acobe.Ranked{{User: "u", Ranks: []int{1}, Priority: 1}}
	if rankingDiff(a, a) != "" {
		t.Fatal("equal rankings differ")
	}
	if rankingDiff(a, nil) == "" {
		t.Fatal("rankings of different length compare equal")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "child", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "child", StartNS: 20, EndNS: 40},
		{ID: 4, Parent: 1, Name: "child", StartNS: 90, EndNS: 120},
	}
	for _, st := range selfTimes(spans) {
		if st.Name == "parent" && st.SelfMS != 60e-6 {
			t.Fatalf("parent self time %v ms, want 60 ns (children cover [10,40) and [90,100))", st.SelfMS)
		}
	}
}
