package main

import (
	"context"
	"fmt"
	"slices"

	"acobe/internal/cert"
	"acobe/internal/deviation"
	"acobe/pkg/acobe"
	"acobe/pkg/acobe/daemon"
)

// statusProblems checks the daemon's counters against what the benchmark
// generated and closed: every event ingested, none late, and the
// closed-through day where the last close put it.
func statusProblems(st daemon.Status, generated int64, last cert.Day) []string {
	var out []string
	if st.Ingested != generated {
		out = append(out, fmt.Sprintf("ingested %d events, %d generated", st.Ingested, generated))
	}
	if st.Late != 0 {
		out = append(out, fmt.Sprintf("%d late events", st.Late))
	}
	if st.ClosedThrough != last {
		out = append(out, fmt.Sprintf("closed through %d, want %d", st.ClosedThrough, last))
	}
	return out
}

// batchFields runs the batch pipeline over a measurement table: the
// per-user deviation field and the group field of the group table.
func batchFields(tbl *acobe.Table, cfg acobe.DeviationConfig, groups []string, member []int) (ind, grp *acobe.Field, err error) {
	if ind, err = deviation.ComputeField(tbl, cfg); err != nil {
		return nil, nil, err
	}
	gt, err := tbl.GroupTable(groups, member)
	if err != nil {
		return nil, nil, err
	}
	grp, err = deviation.ComputeField(gt, cfg)
	return ind, grp, err
}

// batchRanking ranks [from, to] the batch way: the served detector's
// trained models rebound onto batch-computed fields, so no second fit is
// needed.
func batchRanking(ctx context.Context, det *acobe.Detector, ind, grp *acobe.Field, member []int, from, to cert.Day) ([]acobe.Ranked, error) {
	re, err := det.Rebind(ind, grp, member)
	if err != nil {
		return nil, err
	}
	return re.Rank(ctx, from, to)
}

// rankingDiff describes the first row where two rankings differ (user,
// priority or any per-aspect rank), or returns "" when they are equal.
func rankingDiff(got, want []acobe.Ranked) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.User != w.User || g.Priority != w.Priority || !slices.Equal(g.Ranks, w.Ranks) {
			return fmt.Sprintf("row %d: %s priority %d ranks %v, want %s priority %d ranks %v",
				i, g.User, g.Priority, g.Ranks, w.User, w.Priority, w.Ranks)
		}
	}
	return ""
}

// gate runs the correctness gate on a daemon after its last close: the
// status counters, then the final rank over the query range against the
// batch pipeline. It returns the batch fields for the traced layer
// timings.
func (b *bench) gate(ds *dataset, srv *daemon.Server, generated int64, last cert.Day) (ind, grp *acobe.Field) {
	problems := statusProblems(srv.Status(), generated, last)
	b.check("status counters", len(problems) == 0, fmt.Sprint(problems))

	span := b.rec.begin("gate.batch_pipeline", spanRef{})
	defer b.rec.end(span)
	ind, grp, err := batchFields(ds.batch.Table(), devConfig(), ds.groups, ds.member)
	if !b.op("batch fields", err) {
		return nil, nil
	}
	from, to := rankRange(last)
	want, err := batchRanking(b.ctx, srv.Detector(), ind, grp, ds.member, from, to)
	if !b.op("batch rank", err) {
		return nil, nil
	}
	got, err := srv.Rank(b.ctx, from, to)
	if b.op("rank", err) {
		diff := rankingDiff(got, want)
		b.check("final rank equals batch pipeline", diff == "", diff)
	}
	return ind, grp
}
