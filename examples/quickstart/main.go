// Quickstart: assemble a small SDN, let the controller discover the
// topology and learn the hosts, and exchange dataplane traffic — the
// "hello world" of the library.
package main

import (
	"fmt"
	"log"
	"time"

	"sdntamper/internal/controller"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/netsim"
	"sdntamper/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// One deterministic virtual network: two switches joined by a trunk,
	// a host on each, and a Floodlight-profile controller.
	net := netsim.New(42, controller.WithLogf(func(format string, args ...any) {
		fmt.Printf("[controller] "+format+"\n", args...)
	}))
	defer net.Shutdown()

	net.AddSwitch(0x1, nil)
	net.AddSwitch(0x2, nil)
	net.AddTrunk(0x1, 3, 0x2, 3, sim.Const(5*time.Millisecond))
	h1 := net.AddHost("h1", "aa:aa:aa:aa:aa:01", "10.0.0.1", 0x1, 1, sim.Const(time.Millisecond))
	h2 := net.AddHost("h2", "aa:aa:aa:aa:aa:02", "10.0.0.2", 0x2, 1, sim.Const(time.Millisecond))

	// Let the handshake and link discovery run.
	if err := net.Run(2 * time.Second); err != nil {
		return err
	}
	fmt.Println("\ndiscovered links:")
	for _, l := range net.Controller.Links() {
		fmt.Printf("  %s\n", l)
	}

	// ARP then ping across the trunk. Callbacks fire on the virtual
	// clock as the simulation advances.
	h1.ARPPing(h2.IP(), time.Second, func(r dataplane.ProbeResult) {
		fmt.Printf("\nh1: ARP who-has %s -> %s is-at %s (rtt %s)\n", h2.IP(), h2.IP(), r.MAC, r.RTT)
	})
	if err := net.Run(time.Second); err != nil {
		return err
	}
	h1.Ping(h2.MAC(), h2.IP(), time.Second, func(r dataplane.ProbeResult) {
		fmt.Printf("h1: ping %s alive=%v rtt=%s\n", h2.IP(), r.Alive, r.RTT)
	})
	if err := net.Run(time.Second); err != nil {
		return err
	}

	fmt.Println("\nhost tracking table:")
	fmt.Print(net.Controller.HostTableString())

	fmt.Printf("\nflow rules installed: s1=%d s2=%d\n",
		net.Switch(0x1).Table().Len(), net.Switch(0x2).Table().Len())
	fmt.Printf("virtual time elapsed: %s (wall time: microseconds)\n", net.ControlKernel().Elapsed())
	return nil
}
