package cliffedge_test

import (
	"context"
	"fmt"
	"log"

	"cliffedge"
)

// ExampleCluster_Run reproduces the library's core promise on a 5×5 mesh:
// crash one interior node and its four neighbours — only they — agree on
// the region and a common plan, with CD1–CD7 checked online. Deterministic
// given the seed.
func ExampleCluster_Run() {
	topo := cliffedge.Grid(5, 5)
	victim := cliffedge.GridID(2, 2)

	c, err := cliffedge.New(topo, cliffedge.WithSeed(1), cliffedge.WithChecker())
	if err != nil {
		log.Fatal(err)
	}
	res, err := c.Run(context.Background(), cliffedge.NewPlan().At(10).Crash(victim))
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range res.Decisions {
		fmt.Printf("%s decided %s\n", d.Node, d.View)
	}
	fmt.Printf("participants: %d of %d correct nodes\n",
		res.Stats.Participants, topo.Len()-1)

	// Output:
	// n0001-0002 decided {n0002-0002}
	// n0002-0001 decided {n0002-0002}
	// n0002-0003 decided {n0002-0002}
	// n0003-0002 decided {n0002-0002}
	// participants: 4 of 24 correct nodes
}

// ExamplePlan_Mark shows the §5 stable-predicate extension: two marked
// (alive but withdrawn) nodes are detected cooperatively, no failure
// detector involved.
func ExamplePlan_Mark() {
	topo := cliffedge.Line(5) // r0 - r1 - r2 - r3 - r4
	marked := []cliffedge.NodeID{cliffedge.RingID(2), cliffedge.RingID(3)}

	c, err := cliffedge.New(topo, cliffedge.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	res, err := c.Run(context.Background(), cliffedge.NewPlan().At(10).Mark(marked...))
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range res.Decisions {
		fmt.Printf("%s decided %s\n", d.Node, d.View)
	}

	// Output:
	// r000001 decided {r000002,r000003}
	// r000004 decided {r000002,r000003}
}
