// Heterogeneous deployment: devices with different radio counts (a
// carrier-grade backhaul node with 4 radios, mid-tier APs with 2-3, an IoT
// gateway with 1) share the 5 GHz U-NII band. The paper assumes a uniform
// radio count; this example exercises the library's heterogeneous-budget
// extension (EXPERIMENTS.md E11) and prints real channel frequencies.
//
//	go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"

	"github.com/multiradio/chanalloc"
)

func main() {
	log.SetFlags(0)

	band := chanalloc.UNII5GHz()
	devices := []chanalloc.Device{
		{ID: "backhaul-1", Radios: 4},
		{ID: "ap-east", Radios: 3},
		{ID: "ap-west", Radios: 3},
		{ID: "ap-yard", Radios: 2},
		{ID: "iot-gw", Radios: 1},
	}
	deployment, err := chanalloc.NewDeployment(band, devices)
	if err != nil {
		log.Fatal(err)
	}

	// Practical CSMA/CA channel model: the total rate of a channel decays
	// as radios pile on.
	rate, err := chanalloc.PracticalCSMA(chanalloc.Bianchi1Mbps())
	if err != nil {
		log.Fatal(err)
	}
	g, err := deployment.HeteroGame(rate)
	if err != nil {
		log.Fatal(err)
	}

	alloc, err := chanalloc.Algorithm1(g)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Band: %s (%d channels)\n\n", band.Name, band.NumChannels)
	fmt.Println("Occupancy after selfish allocation:")
	fmt.Print(chanalloc.OccupancyDiagram(alloc))

	assignments, err := deployment.Assignments(alloc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nRadio assignments:")
	for _, a := range assignments {
		fmt.Printf("  %s\n", a)
	}

	ne, err := g.IsNashEquilibrium(alloc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nStable against selfish deviation: %v\n", ne)
	fmt.Printf("Loads balanced within one radio:   %v\n", chanalloc.LoadBalanced(alloc))
	fmt.Println("\nPer-device rates (Mbit/s):")
	for i, u := range g.Utilities(alloc) {
		fmt.Printf("  %-12s (%d radios): %6.3f\n", devices[i].ID, devices[i].Radios, u)
	}
	fmt.Printf("Total: %.3f Mbit/s\n", g.Welfare(alloc))
}
