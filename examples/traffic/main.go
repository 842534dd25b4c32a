// Traffic: the paper's motivating network-monitoring scenario (§1,
// §4.3). A simulated firewall packet log is grouped into connections
// with the 60-second gap rule; a 3-way self-join with s-justBefore finds
// chains of connections that closely follow each other — potential
// lateral movement or cascading requests.
package main

import (
	"context"
	"fmt"
	"log"

	"tkij"
)

func main() {
	// Simulate a packet log and build connections [client, server,
	// start, end], exactly as §4.3.1 preprocesses its firewall data.
	packets := tkij.GenPackets(3000, 60, 86400, 42)
	conns := tkij.BuildConnections("connections", packets, 0)
	fmt.Printf("built %d connections from %d packets\n", conns.Len(), len(packets))

	avg := tkij.AvgLength(conns)
	fmt.Printf("average connection length: %.1fs\n", avg)

	// QjB,jB: sequences (x1, x2, x3) where each connection starts within
	// one average length after the previous one ends (Table 1, §4.3.1).
	q, err := tkij.QueryByName("QjB,jB", tkij.QueryEnv{Params: tkij.P3, Avg: avg})
	if err != nil {
		log.Fatal(err)
	}

	engine, err := tkij.NewEngine([]*tkij.Collection{conns}, tkij.Options{
		K:        15,
		Granules: 40,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Self-join: every query vertex reads the same connection list, the
	// paper's setup of copying the collection three times.
	report, err := engine.ExecuteMapped(context.Background(), q, []int{0, 0, 0})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ntop connection chains (x1 -> x2 -> x3), %v total:\n", report.Total)
	for i, r := range report.Results {
		fmt.Printf("#%2d score %.3f  chain:", i+1, r.Score)
		for _, c := range r.Tuple {
			fmt.Printf(" [%d,%d]", c.Start, c.End)
		}
		fmt.Println()
	}

	// The same engine (and its statistics) answers a second query:
	// QsM,sM finds chains separated by exactly one average length — the
	// "delayed reaction" pattern.
	q2, err := tkij.QueryByName("QsM,sM", tkij.QueryEnv{Params: tkij.P3, Avg: avg})
	if err != nil {
		log.Fatal(err)
	}
	report2, err := engine.ExecuteMapped(context.Background(), q2, []int{0, 0, 0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntop delayed chains (QsM,sM), %v (statistics reused):\n", report2.Total)
	for i, r := range report2.Results {
		if i >= 5 {
			break
		}
		fmt.Printf("#%2d score %.3f\n", i+1, r.Score)
	}
}
