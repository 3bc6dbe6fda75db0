// Task dependencies: the T and R matrices of §4.2 as static friction.
// Tightly coupled task clusters resist migration (moving one away from its
// cluster would cost more communication than the balance gain is worth),
// while independent tasks flow freely. The balancer trades balance against
// communication locality automatically — no special-casing.
//
//	go run ./examples/dependencies
package main

import (
	"fmt"
	"log"

	"pplb"
)

func main() {
	g := pplb.Torus(6, 6)
	n := g.N()

	// 144 tasks, all starting at node 0.
	init := pplb.HotspotLoad(n, 0, 144, 0.5)

	for _, w := range []float64{0, 1, 8, 64} {
		// Group the tasks into clusters of four with all-pairs dependency
		// weight w inside each cluster (the T matrix).
		tg := pplb.ClusteredDeps(init, 4, w)

		sys, err := pplb.NewSystem(g,
			pplb.NewBalancer(pplb.DefaultBalancerConfig()),
			pplb.WithInitial(init),
			pplb.WithTaskGraph(tg),
			pplb.WithSeed(3),
		)
		if err != nil {
			log.Fatal(err)
		}
		sys.Run(800)
		c := sys.Counters()
		fmt.Printf("dependency weight %-3.0f: CV=%.3f  migrations=%-5d mean task hops=%.2f\n",
			w, sys.CV(), c.Migrations, meanHops(sys))
	}

	fmt.Println("\nheavier clusters -> larger µs -> fewer migrations: the balancer")
	fmt.Println("accepts more imbalance rather than separate communicating tasks")
}

func meanHops(sys *pplb.System) float64 {
	s := sys.State()
	st := s.TaskStore()
	total, count := 0, 0
	for v := 0; v < s.Graph().N(); v++ {
		for h := s.Queue(v).Front(); h >= 0; h = st.Next(h) {
			total += st.Hops(h)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}
