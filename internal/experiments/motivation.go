package experiments

import (
	"fmt"

	"morrigan/internal/arch"
	"morrigan/internal/machine"
	"morrigan/internal/stats"
	"morrigan/internal/workloads"
)

// Table1 reports the simulated system configuration (the paper's Table 1).
func Table1(o Options) (*Table, error) {
	cfg := machine.Default()
	t := &Table{
		ID:     "table1",
		Title:  "System configuration",
		Header: []string{"component", "description"},
	}
	t.AddRow("Core", fmt.Sprintf("%d-wide interval model, ROB %d", cfg.Core.Width, cfg.Core.ROB))
	t.AddRow("L1 I-TLB", fmt.Sprintf("%d-entry, %d-way, %d-cycle", cfg.ITLBEntries, cfg.ITLBWays, cfg.ITLBLatency))
	t.AddRow("L1 D-TLB", fmt.Sprintf("%d-entry, %d-way, %d-cycle", cfg.DTLBEntries, cfg.DTLBWays, cfg.DTLBLatency))
	t.AddRow("L2 TLB (STLB)", fmt.Sprintf("%d-entry, %d-way, %d-cycle", cfg.STLBEntries, cfg.STLBWays, cfg.STLBLatency))
	t.AddRow("PSC", fmt.Sprintf("3-level split, %d-cycle: PML4 %d-entry, PDP %d-entry, PD %d-entry %d-way",
		cfg.Walker.PSC.Latency, cfg.Walker.PSC.PML4Entries, cfg.Walker.PSC.PDPEntries, cfg.Walker.PSC.PDEntries, cfg.Walker.PSC.PDWays))
	t.AddRow("Page walker", fmt.Sprintf("4-level radix, %d MSHRs", cfg.Walker.MSHRs))
	t.AddRow("Prefetch Buffer", fmt.Sprintf("%d-entry, fully assoc, %d-cycle", cfg.PBEntries, cfg.PBLatency))
	t.AddRow("L1I", fmt.Sprintf("%d KB, %d-way, %d-cycle, next-line prefetcher",
		cfg.Cache.L1ISets*cfg.Cache.L1IWays*arch.LineSize/1024, cfg.Cache.L1IWays, cfg.Cache.L1Latency))
	t.AddRow("L1D", fmt.Sprintf("%d KB, %d-way, %d-cycle",
		cfg.Cache.L1DSets*cfg.Cache.L1DWays*arch.LineSize/1024, cfg.Cache.L1DWays, cfg.Cache.L1Latency))
	t.AddRow("L2", fmt.Sprintf("%d KB, %d-way, %d-cycle, stride prefetcher (SPP stand-in)",
		cfg.Cache.L2Sets*cfg.Cache.L2Ways*arch.LineSize/1024, cfg.Cache.L2Ways, cfg.Cache.L2Latency))
	t.AddRow("LLC", fmt.Sprintf("%d MB, %d-way, %d-cycle",
		cfg.Cache.LLCSets*cfg.Cache.LLCWays*arch.LineSize/1024/1024, cfg.Cache.LLCWays, cfg.Cache.LLCLatency))
	t.AddRow("DRAM", fmt.Sprintf("%d-cycle fixed latency", cfg.Cache.DRAMLatency))
	return t, nil
}

// Fig2 measures the iSTLB MPKI of the Java-server-like workloads (paper
// Figure 2: 0.6-2.1 MPKI on a 1536-entry STLB).
func Fig2(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig2",
		Title:  "iSTLB MPKI of Java server workloads",
		Header: []string{"workload", "iSTLB MPKI"},
		Notes:  []string{"paper: 0.6-2.1 MPKI across DaCapo/Renaissance on Skylake"},
	}
	java := workloads.Java()
	jobs := make([]simJob, len(java))
	for i, w := range java {
		jobs[i] = job("baseline", w, baseline())
	}
	sts, err := o.campaign(t.ID, jobs)
	if err != nil {
		return nil, err
	}
	for i, w := range java {
		t.AddRow(w.Name, f2(sts[i].ISTLBMPKI))
	}
	return t, nil
}

// Fig3 contrasts front-end MPKI (L1I, I-TLB, iSTLB) between the SPEC-like
// and QMM-like suites (paper Figure 3: an order-of-magnitude gap).
func Fig3(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig3",
		Title:  "Instruction MPKI for front-end structures (suite averages)",
		Header: []string{"suite", "L1I MPKI", "I-TLB MPKI", "iSTLB MPKI"},
		Notes:  []string{"paper: QMM an order of magnitude above SPEC on all three"},
	}
	suites := []struct {
		name  string
		specs []workloads.Spec
	}{
		{"SPEC-like", workloads.SPEC()},
		{"QMM-like", o.qmm()},
	}
	var jobs []simJob
	for _, suite := range suites {
		for _, w := range suite.specs {
			jobs = append(jobs, job(suite.name, w, baseline()))
		}
	}
	sts, err := o.campaign(t.ID, jobs)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, suite := range suites {
		var l1i, itlb, istlb []float64
		for range suite.specs {
			st := sts[k]
			k++
			l1i = append(l1i, st.L1IMPKI)
			itlb = append(itlb, st.ITLBMPKI)
			istlb = append(istlb, st.ISTLBMPKI)
		}
		t.AddRow(suite.name, f2(stats.Mean(l1i)), f2(stats.Mean(itlb)), f2(stats.Mean(istlb)))
	}
	return t, nil
}

// Fig4 reports the share of execution cycles spent serving iSTLB accesses
// (paper Figure 4: 6.6-11.7%, all above VTune's 5% bottleneck threshold).
func Fig4(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig4",
		Title:  "Cycles serving iSTLB accesses (% of total execution cycles)",
		Header: []string{"workload", "translation cycles"},
		Notes:  []string{"paper: 6.6%-11.7%; VTune flags >5% as a bottleneck"},
	}
	qmm := o.qmm()
	jobs := make([]simJob, len(qmm))
	for i, w := range qmm {
		jobs[i] = job("baseline", w, baseline())
	}
	sts, err := o.campaign(t.ID, jobs)
	if err != nil {
		return nil, err
	}
	var all []float64
	for i, w := range qmm {
		all = append(all, sts[i].TranslationCyclePct)
		t.AddRow(w.Name, pct(sts[i].TranslationCyclePct))
	}
	t.AddRow("mean", pct(stats.Mean(all)))
	return t, nil
}

// Fig5 builds the cumulative distribution of deltas between consecutive
// iSTLB misses (paper Figure 5: deltas 1-10 cover ~19%).
func Fig5(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig5",
		Title:  "Cumulative distribution of |delta| between consecutive iSTLB misses",
		Header: []string{"|delta| <=", "cumulative"},
		Notes:  []string{"paper: |delta| in [1,10] accounts for ~19% of deltas"},
	}
	streams, _, err := o.missStreams(t.ID, o.qmm())
	if err != nil {
		return nil, err
	}
	agg := stats.NewDeltaDistribution()
	for _, stream := range streams {
		for _, p := range stream {
			agg.Observe(p)
		}
	}
	for _, lim := range []uint64{1, 2, 5, 10, 50, 100, 1000, 10000, 1 << 30} {
		label := fmt.Sprintf("%d", lim)
		if lim == 1<<30 {
			label = "all"
		}
		t.AddRow(label, pct(agg.CumulativeUpTo(lim)))
	}
	return t, nil
}

// Fig6 reports how many of the hottest instruction pages cover 50/80/90% of
// iSTLB misses (paper Figure 6: 400-800 pages for 90%).
func Fig6(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig6",
		Title:  "Instruction pages sorted by STLB miss frequency",
		Header: []string{"workload", "misses", "distinct pages", "pages@50%", "pages@80%", "pages@90%"},
		Notes:  []string{"paper: 400-800 pages cause 90% of iSTLB misses"},
	}
	qmm := o.qmm()
	// Representative sample across footprints, as the paper plots.
	idx := []int{0, len(qmm) / 4, len(qmm) / 2, 3 * len(qmm) / 4, len(qmm) - 1}
	specs := make([]workloads.Spec, len(idx))
	for i, j := range idx {
		specs[i] = qmm[j]
	}
	streams, _, err := o.missStreams(t.ID, specs)
	if err != nil {
		return nil, err
	}
	for i, w := range specs {
		pf := stats.NewPageFrequency()
		for _, p := range streams[i] {
			pf.Observe(p)
		}
		t.AddRow(w.Name,
			fmt.Sprintf("%d", pf.Total()),
			fmt.Sprintf("%d", pf.Pages()),
			fmt.Sprintf("%d", pf.PagesForCoverage(50)),
			fmt.Sprintf("%d", pf.PagesForCoverage(80)),
			fmt.Sprintf("%d", pf.PagesForCoverage(90)))
	}
	return t, nil
}

// Fig7 buckets instruction pages by how many distinct successor pages they
// have in the miss stream (paper Figure 7).
func Fig7(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig7",
		Title:  "Successors per instruction page in the iSTLB miss stream (% of pages)",
		Header: []string{"workload", "=1", "=2", "3-4", "5-8", ">8"},
		Notes:  []string{"paper: large fractions at 1-2, sizable up to 8, few beyond"},
	}
	streams, _, err := o.missStreams(t.ID, o.qmm())
	if err != nil {
		return nil, err
	}
	var a1, a2, a4, a8, am []float64
	for _, stream := range streams {
		ss := stats.NewSuccessorStats()
		for _, p := range stream {
			ss.Observe(p)
		}
		one, two, four, eight, more := ss.SuccessorHistogram()
		a1, a2, a4 = append(a1, one), append(a2, two), append(a4, four)
		a8, am = append(a8, eight), append(am, more)
	}
	t.AddRow("mean over suite",
		pct(stats.Mean(a1)), pct(stats.Mean(a2)), pct(stats.Mean(a4)),
		pct(stats.Mean(a8)), pct(stats.Mean(am)))
	return t, nil
}

// Fig8 measures the probability of the most likely successors for the top
// 50 missing pages (paper Figure 8: 51/21/11/17).
func Fig8(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "Probability of accessing the same successor after an iSTLB miss (top-50 pages)",
		Header: []string{"suite", "1st", "2nd", "3rd", "rest"},
		Notes:  []string{"paper: 51% / 21% / 11% / 17%"},
	}
	streams, _, err := o.missStreams(t.ID, o.qmm())
	if err != nil {
		return nil, err
	}
	var f, s2, s3, r []float64
	for _, stream := range streams {
		ss := stats.NewSuccessorStats()
		for _, p := range stream {
			ss.Observe(p)
		}
		first, second, third, rest := ss.TopPageSuccessorProbabilities(50)
		f, s2 = append(f, first), append(s2, second)
		s3, r = append(s3, third), append(r, rest)
	}
	t.AddRow("mean over suite", pct(stats.Mean(f)), pct(stats.Mean(s2)), pct(stats.Mean(s3)), pct(stats.Mean(r)))
	return t, nil
}
