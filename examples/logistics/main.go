// Logistics: bounded reachability as a delivery-hop SLA check. A parcel
// network (depots and sortation centers, edges are scheduled legs) is
// sharded by region across sites; the dispatcher asks whether a
// destination is reachable within l legs — qbr(s, t, l) — and gets the
// exact hop distance when it is.
//
// The example also demonstrates the third performance guarantee: response
// time tracks the largest fragment, so doubling the number of sites
// roughly halves the local-evaluation cost.
//
// Run with: go run ./examples/logistics
package main

import (
	"fmt"
	"log"
	"time"

	"distreach"
	"distreach/internal/gen"
)

func main() {
	// A layered network: parcels flow forward through 12 layers of 600
	// facilities; some long-haul legs skip layers.
	g := buildNetwork()
	fmt.Printf("parcel network: %v\n\n", g)

	src := distreach.NodeID(3)                // origin depot, layer 0
	dst := distreach.NodeID(g.NumNodes() - 7) // destination, last layer

	for _, regions := range []int{4, 8, 16} {
		fr, err := distreach.PartitionEdgeCut(g, regions, 99)
		if err != nil {
			log.Fatal(err)
		}
		cl := distreach.NewCluster(regions, distreach.NetModel{
			Latency: time.Millisecond, BytesPerSecond: 100e6,
		})
		start := time.Now()
		res := distreach.ReachWithin(cl, fr, src, dst, 14)
		wall := time.Since(start)
		fmt.Printf("regions=%2d  within 14 legs: %-5v dist=%-3d |Fm|=%-6d wall=%v\n",
			regions, res.Answer, res.Distance, fr.MaxFragmentSize(), wall.Round(time.Microsecond))
	}

	// Tighten the SLA until it fails, reporting the break-even bound.
	fr, err := distreach.PartitionRandom(g, 8, 5)
	if err != nil {
		log.Fatal(err)
	}
	cl := distreach.NewCluster(8, distreach.NetModel{})
	fmt.Println()
	for l := 14; l >= 8; l-- {
		res := distreach.ReachWithin(cl, fr, src, dst, l)
		fmt.Printf("SLA %2d legs: %v\n", l, res.Answer)
		if !res.Answer {
			fmt.Printf("tightest feasible SLA is %d legs\n", l+1)
			break
		}
	}
}

func buildNetwork() *distreach.Graph {
	rng := gen.NewRNG(314)
	const layers, width = 12, 600
	b := distreach.NewBuilder(layers * width)
	for i := 0; i < layers*width; i++ {
		b.AddNode("facility")
	}
	id := func(layer, i int) distreach.NodeID { return distreach.NodeID(layer*width + i) }
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			// Scheduled legs to a few facilities in the next layer.
			for d := 0; d < 3; d++ {
				b.AddEdge(id(l, i), id(l+1, rng.Intn(width)))
			}
			// Occasional long-haul leg skipping a layer.
			if l+2 < layers && rng.Intn(10) == 0 {
				b.AddEdge(id(l, i), id(l+2, rng.Intn(width)))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return g
}
