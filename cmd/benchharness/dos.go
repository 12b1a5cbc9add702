package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/core"
)

// dosReport is the JSON artifact the dos experiment writes. The
// invariants block is produced on the virtual clock and is byte-identical
// for a fixed (seed, k) regardless of shard count or parallel execution —
// the harness errors out if any configuration diverges from the serial
// reference before writing the file. Wall rows are the only
// host-dependent content and are labeled as such.
type dosReport struct {
	Experiment string          `json:"experiment"`
	Seed       int64           `json:"seed"`
	K          int             `json:"k"`
	Note       string          `json:"note"`
	Invariants []dosVariantRow `json:"invariants_all_shard_counts"`
	Wall       []dosWallRow    `json:"wall_nondeterministic"`
}

type dosVariantRow struct {
	Variant            string  `json:"variant"`
	Attackers          int     `json:"attackers"`
	DetectionLatencyMS float64 `json:"detection_latency_ms"`
	Blocks             int     `json:"blocks"`
	AttackerBlocks     int     `json:"attacker_blocks"`
	VictimBlocks       int     `json:"victim_backscatter_blocks"`
	FalseBlocks        int     `json:"false_blocks"`
	FalseBlockRate     float64 `json:"false_block_rate"`
	Unblocks           int     `json:"unblocks"`
	Reblocked          int     `json:"reblocked"`
	LegitFlows         uint64  `json:"legit_flows"`
	LegitPackets       uint64  `json:"legit_packets"`
	LegitBytes         uint64  `json:"legit_bytes"`
	AttackPackets      uint64  `json:"attack_packets"`
	Events             uint64  `json:"events_executed"`
	VirtualTimeS       float64 `json:"virtual_time_s"`
}

type dosWallRow struct {
	Variant      string  `json:"variant"`
	Shards       int     `json:"shards"`
	Parallel     bool    `json:"parallel"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// dosConfigs is the shard/parallel sweep every variant runs: the serial
// single-shard reference plus the most adversarial sharded configuration.
var dosConfigs = []struct {
	shards   int
	parallel bool
}{
	{1, false},
	{2, true},
}

func dosRow(r *core.DoSResult) dosVariantRow {
	row := dosVariantRow{
		Variant:            r.Variant,
		Attackers:          r.Attackers,
		DetectionLatencyMS: durMS(r.DetectionLatency),
		Blocks:             r.Blocks,
		AttackerBlocks:     r.AttackerBlocks,
		VictimBlocks:       r.VictimBlocks,
		FalseBlocks:        r.FalseBlocks,
		Unblocks:           r.Unblocks,
		Reblocked:          r.Reblocked,
		LegitFlows:         r.LegitFlows,
		LegitPackets:       r.LegitPackets,
		LegitBytes:         r.LegitBytes,
		AttackPackets:      r.AttackPackets,
		Events:             r.Events,
		VirtualTimeS:       r.VirtualTime.Seconds(),
	}
	if r.Blocks > 0 {
		row.FalseBlockRate = float64(r.FalseBlocks) / float64(r.Blocks)
	}
	return row
}

// dosVariants are the flood variants the dos experiment runs, in order.
var dosVariants = []attack.DoSVariant{attack.SYNFlood, attack.LinkSaturation}

// parseDoSFloors reads the -dosfloor flag, comma-separated
// variant=figure pairs, into a kernel events/s floor per flood variant
// name. The floors are per variant because the variants run at different
// event rates (a saturation event carries a full-size frame), so one
// shared floor would sit far below the faster variant's rate. A variant
// left out has no floor.
func parseDoSFloors(s string) (map[string]float64, error) {
	floors := make(map[string]float64)
	if s == "" {
		return floors, nil
	}
	for _, pair := range strings.Split(s, ",") {
		name, figure, ok := strings.Cut(pair, "=")
		v, err := strconv.ParseFloat(figure, 64)
		if !ok || err != nil {
			return nil, fmt.Errorf("-dosfloor: %q is not variant=figure", pair)
		}
		known := false
		for _, variant := range dosVariants {
			known = known || variant.String() == name
		}
		if !known {
			return nil, fmt.Errorf("-dosfloor: unknown variant %q", name)
		}
		floors[name] = v
	}
	return floors, nil
}

// printDoS runs the distributed-DoS experiment: both flood variants on
// the k-ary fat-tree under the full defense stack, each at every shard
// configuration. It asserts the deterministic surface (detection
// timeline, block classification, traffic totals, merged metrics) is
// identical across configurations, enforces the optional per-variant
// kernel throughput floors, and optionally writes the JSON report.
func printDoS(seed int64, k int, floors map[string]float64, outPath string) error {
	header(fmt.Sprintf("DOS: distributed floods vs rate monitor on the k=%d fat-tree", k))
	report := dosReport{
		Experiment: "dos",
		Seed:       seed,
		K:          k,
		Note: "Invariants are produced on the virtual clock and verified byte-identical " +
			"across the shard/parallel sweep before this file is written; wall rows are " +
			"host-dependent. false_blocks counts auto-blocks on ports that are neither " +
			"attacker ports nor the victim's own (backscatter) port — the legitimate " +
			"generator and its mid-run burst run through the whole attack.",
	}

	for _, variant := range dosVariants {
		var ref *core.DoSResult
		for _, cfg := range dosConfigs {
			res, err := core.RunDoS(seed, k, cfg.shards, cfg.parallel, variant)
			if err != nil {
				return fmt.Errorf("%s shards=%d: %w", variant, cfg.shards, err)
			}
			eps := float64(res.Events) / res.Wall.Seconds()
			report.Wall = append(report.Wall, dosWallRow{
				Variant:      res.Variant,
				Shards:       cfg.shards,
				Parallel:     cfg.parallel,
				WallSeconds:  res.Wall.Seconds(),
				EventsPerSec: eps,
			})
			if floor := floors[variant.String()]; floor > 0 && eps < floor {
				return fmt.Errorf("%s shards=%d: %.0f events/s below the %.0f floor",
					variant, cfg.shards, eps, floor)
			}
			if ref == nil {
				ref = res
				continue
			}
			if dosRow(res) != dosRow(ref) {
				return fmt.Errorf("%s shards=%d parallel=%v: deterministic surface diverged from serial reference",
					variant, cfg.shards, cfg.parallel)
			}
			if res.MetricsProm != ref.MetricsProm {
				return fmt.Errorf("%s shards=%d parallel=%v: merged metrics not byte-identical",
					variant, cfg.shards, cfg.parallel)
			}
		}
		if ref.FalseBlocks != 0 {
			return fmt.Errorf("%s: %d false blocks on legitimate traffic", variant, ref.FalseBlocks)
		}
		report.Invariants = append(report.Invariants, dosRow(ref))
	}

	fmt.Printf("%-12s %-10s %-16s %-24s %-10s %s\n",
		"Variant", "Attackers", "Detection", "Blocks (atk/victim/false)", "Reblocked", "False-block rate")
	for _, row := range report.Invariants {
		fmt.Printf("%-12s %-10d %-16s %d (%d/%d/%d)%-*s %-10d %.3f\n",
			row.Variant, row.Attackers,
			time.Duration(row.DetectionLatencyMS*float64(time.Millisecond)).Truncate(time.Millisecond),
			row.Blocks, row.AttackerBlocks, row.VictimBlocks, row.FalseBlocks,
			24-len(fmt.Sprintf("%d (%d/%d/%d)", row.Blocks, row.AttackerBlocks, row.VictimBlocks, row.FalseBlocks)), "",
			row.Reblocked, row.FalseBlockRate)
	}
	fmt.Println()
	fmt.Printf("%-12s %-8s %-10s %-12s %s\n", "Variant", "Shards", "Parallel", "Wall", "Events/s")
	for _, w := range report.Wall {
		fmt.Printf("%-12s %-8d %-10v %-12s %.0f\n",
			w.Variant, w.Shards, w.Parallel,
			time.Duration(w.WallSeconds*float64(time.Second)).Truncate(10*time.Millisecond), w.EventsPerSec)
	}
	fmt.Println("deterministic surface and merged metrics byte-identical across the shard/parallel sweep")

	if outPath == "" {
		return nil
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("report written to", outPath)
	return nil
}
