package runreport

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/report"
)

// notRecorded fills a table cell whose value the event log does not
// carry.
const notRecorded = "not recorded"

// renderFenced wraps the fixed-width table in a code fence so it renders
// verbatim in markdown.
func renderFenced(w io.Writer, tb *report.Table) {
	fmt.Fprintln(w, "```")
	tb.Render(w)
	fmt.Fprintln(w, "```")
	fmt.Fprintln(w)
}

// WriteMarkdown renders the report as GitHub-flavored markdown using the
// shared table renderer.
func WriteMarkdown(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "# Run report: %s\n\n", rep.Source)
	if rep.Binary != "" {
		fmt.Fprintf(w, "binary `%s`", rep.Binary)
		if rep.Cipher != "" {
			fmt.Fprintf(w, ", cipher `%s`", rep.Cipher)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%d events over %.2fs wall clock\n\n", rep.Events, rep.WallClock)
	for _, warn := range rep.Warnings {
		fmt.Fprintf(w, "> **warning:** %s\n\n", warn)
	}

	if u := rep.Usage; u != nil {
		fmt.Fprintf(w, "job cost: %.2fs wall, %.2fs cpu, %.2fs queued", u.WallSeconds, u.CPUSeconds, u.QueueSeconds)
		if u.Attempts > 1 {
			fmt.Fprintf(w, " over %d attempts", u.Attempts)
		}
		if u.PeakHeapBytes > 0 {
			fmt.Fprintf(w, ", peak heap +%.1f MiB", float64(u.PeakHeapBytes)/(1<<20))
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w)
	}

	if len(rep.Phases) > 0 {
		tb := report.NewTable("phase latency", "phase", "count", "total ms", "mean ms", "max ms")
		for _, p := range rep.Phases {
			tb.AddRow(p.Phase, p.Count,
				fmt.Sprintf("%.1f", p.TotalMS),
				fmt.Sprintf("%.2f", p.MeanMS),
				fmt.Sprintf("%.2f", p.MaxMS))
		}
		renderFenced(w, tb)
	}

	if len(rep.Throughput) > 0 {
		tb := report.NewTable("throughput over time", "elapsed s", "traces/sec", "campaigns")
		for _, p := range rep.Throughput {
			tb.AddRow(fmt.Sprintf("%.1f", p.ElapsedSeconds),
				fmt.Sprintf("%.0f", p.TracesPerSec), p.Campaigns)
		}
		renderFenced(w, tb)
	}

	if rep.Cache.Lookups > 0 {
		fmt.Fprintf(w, "oracle cache: %d hits / %d lookups (%.0f%% hit rate)\n\n",
			rep.Cache.Hits, rep.Cache.Lookups, 100*rep.Cache.HitRate)
	}
	if rep.Episodes > 0 {
		fmt.Fprintf(w, "episodes: %d total, %d exploitable (%.1f%%), best t = %.1f",
			rep.Episodes, rep.LeakyEpisodes, 100*rep.LeakyRate, rep.BestT)
		if rep.EpisodesPerMin > 0 {
			fmt.Fprintf(w, ", %.0f episodes/min", rep.EpisodesPerMin)
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w)
	}

	if len(rep.BatchPaths) > 0 {
		total, kernel := 0, 0
		var parts []string
		for _, b := range rep.BatchPaths {
			total += b.Campaigns
			if b.Path == "kernel" {
				kernel += b.Campaigns
			}
			parts = append(parts, fmt.Sprintf("%s %s x%d", b.Cipher, b.Path, b.Campaigns))
		}
		fmt.Fprintf(w, "batch coverage: %d/%d campaigns on the kernel path (%s)\n\n",
			kernel, total, strings.Join(parts, ", "))
	}

	if s := rep.Sweep; s != nil {
		fmt.Fprintf(w, "sweep: %d cells, %d exploitable (%.1f%%), max t = %.1f",
			s.Cells, s.Exploitable, 100*s.ExploitableRate, s.MaxT)
		if s.CellsPerSec > 0 {
			fmt.Fprintf(w, ", %.1f cells/sec over %.2fs", s.CellsPerSec, s.DurationSeconds)
		}
		if s.ResumedShards > 0 {
			fmt.Fprintf(w, " (%d shards resumed from checkpoint)", s.ResumedShards)
		}
		if !s.Finished {
			fmt.Fprint(w, " — INTERRUPTED before sweep_finished")
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w)
		if len(s.ByModel) > 0 {
			tb := report.NewTable("sweep cells per fault model", "model", "cells", "exploitable", "rate", "max t")
			for _, m := range s.ByModel {
				rate := 0.0
				if m.Cells > 0 {
					rate = float64(m.Exploitable) / float64(m.Cells)
				}
				tb.AddRow(m.Model, m.Cells, m.Exploitable,
					fmt.Sprintf("%.1f%%", 100*rate),
					fmt.Sprintf("%.1f", m.MaxT))
			}
			renderFenced(w, tb)
		}
	}

	if len(rep.FaultModels) > 0 {
		tb := report.NewTable("per fault model", "model", "episodes", "exploitable", "rate", "campaigns", "mean ms", "max ms")
		for _, m := range rep.FaultModels {
			row := []any{m.Model, m.Episodes, m.LeakyEpisodes, fmt.Sprintf("%.1f%%", 100*m.LeakyRate),
				m.Campaigns, fmt.Sprintf("%.2f", m.CampaignMeanMS), fmt.Sprintf("%.2f", m.CampaignMaxMS)}
			if m.Campaigns == 0 {
				// A discovery whose oracles emit no campaign events has
				// no campaign figures: say so rather than print zeros.
				row[4], row[5], row[6] = notRecorded, notRecorded, notRecorded
			}
			tb.AddRow(row...)
		}
		renderFenced(w, tb)
	}

	if len(rep.Spans) > 0 {
		tb := report.NewTable("trace spans", "span", "count", "total ms", "mean ms", "max ms")
		for _, s := range rep.Spans {
			tb.AddRow(s.Name, s.Count,
				fmt.Sprintf("%.1f", s.TotalMS),
				fmt.Sprintf("%.2f", s.MeanMS),
				fmt.Sprintf("%.2f", s.MaxMS))
		}
		renderFenced(w, tb)
	}
	if rep.WorkerUtilization > 0 {
		fmt.Fprintf(w, "worker utilization (from trace): %.0f%%\n", 100*rep.WorkerUtilization)
	}
	if rep.EmitterStatsSeen && rep.EventsDropped == 0 {
		fmt.Fprintln(w, "event log complete: emitter reported 0 dropped events")
	}
}
