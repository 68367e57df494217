package experiments

import (
	"fmt"
	"strings"
	"time"

	"camus/internal/faults"
	"camus/internal/lang"
	"camus/internal/netsim"
	"camus/internal/workload"
)

// FabricPoint summarizes one spine mode of the two-hop fabric experiment.
type FabricPoint struct {
	Mode          string
	Subscribers   int
	Leaves        int
	TotalMsgs     int
	DeliveredMsgs int
	UplinkMsgs    int
	DownlinkMsgs  int
	InterSwitchMB float64
	HostMB        float64
	LeafEntries   int
	SpineEntries  int
	UpEntries     int
	Recovered     uint64
	WorstP99      time.Duration
	CoverVerified bool
}

// EntryCompression is how many table entries the spine saves: installed
// leaf entries per spine entry.
func (p FabricPoint) EntryCompression() float64 {
	if p.SpineEntries == 0 {
		return 0
	}
	return float64(p.LeafEntries) / float64(p.SpineEntries)
}

// FabricCovering — Goal: what does a covering spine tier save over a broadcast one, in fabric bytes and in spine table entries?
// Success criterion: both spines deliver exactly the same messages, the covering one moves fewer inter-switch bytes, and its program is coarser than the union of leaf rules (compression > 1x).
//
// N subscribers sit behind a two-tier Fabric, each watching a few
// symbols — half of them price-qualified, which is precisely what the
// spine's covers quantify away. Both spine modes run the same feed over
// inter-switch links under a 1% drop + 0.5% dup + reorder plan (recovered
// by the simulated relay, as in the live fabric), so the comparison
// isolates what the covering tier changes. The fabric controller proves
// containment — no leaf predicate escapes its cover — before it installs
// anything.
func FabricCovering(subscribers, leaves int, seed int64) ([]FabricPoint, error) {
	if subscribers <= 0 {
		subscribers = 16
	}
	if leaves <= 0 {
		leaves = 2
	}
	// Subscriber h watches 3 symbols from a pool of 40; every other
	// subscription is price-qualified, so leaf rules are strictly finer
	// than their symbol-only covers.
	var src strings.Builder
	hosts := make([]int, subscribers)
	for s := 0; s < subscribers; s++ {
		h := s + 1
		hosts[s] = h
		for k := 0; k < 3; k++ {
			sym := workload.StockSymbol((int(seed)+s*3+k)%40 + 1)
			if k%2 == 1 {
				fmt.Fprintf(&src, "stock == %s && price > %d : fwd(%d)\n", sym, 3000+1000*k, h)
			} else {
				fmt.Fprintf(&src, "stock == %s : fwd(%d)\n", sym, h)
			}
		}
	}
	rules, err := lang.ParseRules(src.String())
	if err != nil {
		return nil, err
	}
	feedCfg := workload.SyntheticFeedConfig()
	feedCfg.Duration = 50 * time.Millisecond
	feedCfg.Seed = seed
	feed := workload.GenerateFeed(feedCfg)
	_, total := workload.TargetCount(feed, "")

	chaos := &faults.Plan{Seed: seed + 1, Drop: 0.01, Duplicate: 0.005, Reorder: 0.01}
	var out []FabricPoint
	for _, mode := range []struct {
		name  string
		flood bool
	}{{"covering-spine", false}, {"broadcast-spine", true}} {
		f, err := Fabric(feed, rules, leaves, hosts, mode.flood, chaos, netsim.RecoveryDelay)
		if err != nil {
			return nil, err
		}
		up, down := netsim.Total(f.Uplinks), netsim.Total(f.Downlinks)
		out = append(out, FabricPoint{
			Mode:          mode.name,
			Subscribers:   subscribers,
			Leaves:        leaves,
			TotalMsgs:     total,
			DeliveredMsgs: f.Delivered(),
			UplinkMsgs:    up.Msgs,
			DownlinkMsgs:  down.Msgs,
			InterSwitchMB: float64(f.InterSwitchBytes()) / 1e6,
			HostMB:        float64(netsim.Total(f.HostLinks).Bytes) / 1e6,
			LeafEntries:   f.Epoch.LeafEntries,
			SpineEntries:  f.Epoch.SpineEntries,
			UpEntries:     f.Epoch.UpEntries,
			Recovered:     up.Recovered + down.Recovered,
			WorstP99:      f.WorstP99(),
			CoverVerified: true,
		})
	}
	return out, nil
}

// FormatFabric renders the covering-compression comparison.
func FormatFabric(pts []FabricPoint) string {
	var b strings.Builder
	if len(pts) > 0 {
		fmt.Fprintf(&b, "Two-hop fabric, %d subscribers behind %d leaves (chaos on inter-switch links)\n",
			pts[0].Subscribers, pts[0].Leaves)
	}
	fmt.Fprintf(&b, "%-16s %10s %12s %12s %12s %10s %10s\n",
		"spine", "fabric-MB", "uplink-msgs", "leaf-entries", "spine-entries", "compress", "recovered")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-16s %10.2f %12d %12d %12d %9.1fx %10d\n",
			p.Mode, p.InterSwitchMB, p.UplinkMsgs, p.LeafEntries, p.SpineEntries,
			p.EntryCompression(), p.Recovered)
	}
	if len(pts) == 2 && pts[0].InterSwitchMB > 0 {
		fmt.Fprintf(&b, "covering spine moves %.1fx fewer fabric bytes than broadcast\n",
			pts[1].InterSwitchMB/pts[0].InterSwitchMB)
	}
	return b.String()
}
