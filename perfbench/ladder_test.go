package main

import (
	"context"
	"testing"

	"beqos/internal/workload"
)

// TestLadderSumsToTop replays a short churn sequence through both ladders
// and checks that the rungs' median self times add up to the top rung's
// median within its interquartile spread.
func TestLadderSumsToTop(t *testing.T) {
	sp := servingSpec{name: "ladder-test", population: 1000, overload: 1.025, fixedRate: 1000}
	scn, err := workload.Parse(churnSpec(sp, sp.population))
	if err != nil {
		t.Fatal(err)
	}
	prefill, ops, _ := recordOps(scn, 1, 1500)
	edgeID := func(seq uint32) uint64 { return uint64(seq) + 1 }
	ctx := context.Background()
	pipe, err := pipeSystem(sp.population)
	if err != nil {
		t.Fatal(err)
	}
	mux, err := buildEdge(false)(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	one, err := startCluster(oneNodeTopo)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	four, err := startCluster(clusterTopo)
	if err != nil {
		t.Fatal(err)
	}
	defer four.Close()
	tcp, err := buildCluster(ctx, clusterPaths)
	if err != nil {
		t.Fatal(err)
	}
	for name, rungs := range map[string][]rung{
		"single link": {policyRung(sp.population, edgeID), systemRung("resv.server", pipe), systemRung("resv.mux", mux)},
		"cluster":     {localRung("cluster.local", one, [2]int{0, 0}), localRung("cluster.forward", four, [2]int{0, 2}), systemRung("cluster.client", tcp)},
	} {
		lr, err := runLadder(rungs, prefill, ops, &spanLog{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		self := lr.selfTimes(ops)
		sum, top, spread := sumCheck(self)
		t.Logf("%s: Σ self %.0f ns, top p50 %.0f ns, spread %.0f ns", name, sum, top, spread)
		if d := sum - top; d > spread || -d > spread {
			t.Errorf("%s: rungs add up to %.0f ns, top rung p50 %.0f ns: off by more than the spread %.0f ns", name, sum, top, spread)
		}
	}
}
