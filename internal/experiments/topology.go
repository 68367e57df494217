package experiments

import (
	"context"
	"fmt"
	"time"

	"camus/internal/compiler"
	"camus/internal/fabric"
	"camus/internal/faults"
	"camus/internal/lang"
	"camus/internal/netsim"
	"camus/internal/pipeline"
	"camus/internal/workload"
)

// ITCHSwitch compiles rules (source text) against the ITCH spec onto a
// default pipeline switch — the device every simulated node wraps.
func ITCHSwitch(rules string) (*pipeline.Switch, error) {
	prog, err := compiler.CompileSource(workload.ITCHSpec(), rules, compiler.Options{})
	if err != nil {
		return nil, err
	}
	return pipeline.New(prog, pipeline.DefaultConfig())
}

// Star runs the paper's testbed (§4, Fig. 7): a publisher paces feed onto
// a link to one switch, and each of ports has a subscriber host behind
// its own link. flood makes the switch copy every datagram to every port
// — the software-filtering baseline; otherwise it runs the program sw has
// installed. target is the hosts' measured symbol ("" measures every
// datagram); chaos, when it injects anything, makes each host link lossy
// with its own seed. In the returned, already-run topology Hosts[i] and
// Links[i] belong to ports[i] and Switches[0] is the switch.
func Star(feed []workload.FeedPacket, sw *pipeline.Switch, ports []int, flood bool, target string, chaos *faults.Plan) (*netsim.Topology, error) {
	t := netsim.NewTopology()
	node, err := t.Switch(sw, flood)
	if err != nil {
		return nil, err
	}
	for _, port := range ports {
		node.Wire(port, t.Link(t.Host(target)).Lossy(chaos, int64(port)))
	}
	t.Publish(feed, t.Link(node))
	t.Run()
	return t, nil
}

// FabricNet is a run two-hop fabric: the topology, the epoch the real
// controller committed onto its switches, and its links and hosts by role.
type FabricNet struct {
	*netsim.Topology
	Epoch     fabric.Epoch
	Uplinks   []*netsim.Link // leaf up plane → spine, by leaf
	Downlinks []*netsim.Link // spine → leaf down plane, by leaf
	HostLinks []*netsim.Link
	ByHost    map[int]*netsim.Host
}

// InterSwitchBytes sums the bytes that crossed fabric-internal links,
// recovery overhead included — the quantity covers compress.
func (f *FabricNet) InterSwitchBytes() int {
	up, down := netsim.Total(f.Uplinks), netsim.Total(f.Downlinks)
	return up.Bytes + down.Bytes + up.RetxBytes + down.RetxBytes
}

// Fabric runs the two-tier fabric: publishers inject feed round-robin at
// the leaves, each leaf's up plane forwards what the global cover admits
// onto its uplink, the spine forwards per-leaf covers down, and each
// leaf's down plane runs its subscribers' full rules; host h hangs off
// leaf h mod leaves. The member programs are whatever a real
// fabric.Controller installs for rules — containment of every leaf
// program in its covers proven first — on pipeline switches the
// simulated nodes then wrap. flood makes the up planes and the spine
// flood (the broadcast fabric; leaves still filter, so deliveries are
// exact either way). chaos arms every inter-switch hop as a recovering
// link with its own seed and the given gap-request round trip.
func Fabric(feed []workload.FeedPacket, rules []lang.Rule, leaves int, hosts []int, flood bool, chaos *faults.Plan, recovery time.Duration) (*FabricNet, error) {
	ctl, err := fabric.NewController(fabric.ControllerConfig{Spec: workload.ITCHSpec(), Leaves: leaves, VerifyCovers: true})
	if err != nil {
		return nil, err
	}
	// One pipeline switch per member — the spine, then every leaf's down
	// and up plane — each starting on its own empty program.
	members := make([]*pipeline.Switch, 1+2*leaves)
	for i := range members {
		if members[i], err = ITCHSwitch(""); err != nil {
			return nil, err
		}
	}
	spine, downs, ups := members[0], members[1:1+leaves], members[1+leaves:]
	for j := range downs {
		if err := ctl.AddLeaf(
			fabric.Member{Name: fmt.Sprintf("leaf%d-down", j), Dev: downs[j]},
			fabric.Member{Name: fmt.Sprintf("leaf%d-up", j), Dev: ups[j]},
		); err != nil {
			return nil, err
		}
	}
	ctl.AddSpine(fabric.Member{Name: "spine", Dev: spine})
	f := &FabricNet{Topology: netsim.NewTopology(), ByHost: make(map[int]*netsim.Host, len(hosts))}
	if f.Epoch, err = ctl.Apply(context.Background(), rules); err != nil {
		return nil, err
	}

	spineNode, err := f.Switch(spine, flood)
	if err != nil {
		return nil, err
	}
	var ingress []*netsim.Link
	for j := 0; j < leaves; j++ {
		down, err := f.Switch(downs[j], false)
		if err != nil {
			return nil, err
		}
		for _, h := range hosts {
			if h%leaves == j {
				f.ByHost[h] = f.Host("")
				f.HostLinks = append(f.HostLinks, down.Wire(h, f.Link(f.ByHost[h])))
			}
		}
		f.Downlinks = append(f.Downlinks, spineNode.Wire(j, f.Link(down).Recovering(chaos, int64(101+j), recovery)))

		up, err := f.Switch(ups[j], flood)
		if err != nil {
			return nil, err
		}
		f.Uplinks = append(f.Uplinks, up.Wire(0, f.Link(spineNode).Recovering(chaos, int64(1+j), recovery)))
		ingress = append(ingress, f.Link(up))
	}
	f.Publish(feed, ingress...)
	f.Run()
	return f, nil
}
