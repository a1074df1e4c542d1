// Package gateway implements the domain gateway of a multi-bus in-vehicle
// network: an ECU with one CAN controller per bus that forwards selected
// frames between domains (the paper's test vehicles all carry two CAN buses,
// Sec. V-A). A gateway is both a choke point an attack must cross to reach
// another domain and a natural deployment spot for MichiCAN.
package gateway

import (
	"errors"

	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
)

// Filter decides whether a frame received on the port with index from is
// forwarded to the other port.
type Filter func(from int, f can.Frame) bool

// ForwardAll forwards every frame in both directions.
func ForwardAll(int, can.Frame) bool { return true }

// AllowIDs builds a filter forwarding only the listed identifiers (in either
// direction).
func AllowIDs(ids ...can.ID) Filter {
	allowed := make(map[can.ID]bool, len(ids))
	for _, id := range ids {
		allowed[id] = true
	}
	return func(_ int, f can.Frame) bool { return allowed[f.ID] }
}

// Stats summarizes the gateway's activity.
type Stats struct {
	// ReceivedByPort counts frames received per port.
	ReceivedByPort [2]int
	// ForwardedByPort counts frames forwarded *out of* each port index
	// (i.e. received on the other side and routed here).
	ForwardedByPort [2]int
	// Dropped counts frames the filter rejected.
	Dropped int
}

// Gateway bridges exactly two buses. Attach Port(0) to the first bus and
// Port(1) to the second.
type Gateway struct {
	filter Filter
	ports  [2]*Port
	stats  Stats
}

// ErrPortRange indicates a port index other than 0 or 1.
var ErrPortRange = errors.New("gateway: port index must be 0 or 1")

// New creates a gateway with the given forwarding filter (nil = ForwardAll).
func New(name string, filter Filter) *Gateway {
	if filter == nil {
		filter = ForwardAll
	}
	g := &Gateway{filter: filter}
	for i := 0; i < 2; i++ {
		i := i
		p := &Port{index: i}
		p.ctl = controller.New(controller.Config{
			Name:        name + portSuffix(i),
			AutoRecover: true,
			OnReceive: func(_ bus.BitTime, f can.Frame) {
				g.onReceive(i, f)
			},
		})
		g.ports[i] = p
	}
	return g
}

func portSuffix(i int) string {
	if i == 0 {
		return "/port0"
	}
	return "/port1"
}

// Port returns the bus node for the given side (0 or 1).
func (g *Gateway) Port(i int) (*Port, error) {
	if i < 0 || i > 1 {
		return nil, ErrPortRange
	}
	return g.ports[i], nil
}

// Stats returns a copy of the counters.
func (g *Gateway) Stats() Stats { return g.stats }

// onReceive routes a frame received on port from to the opposite port.
func (g *Gateway) onReceive(from int, f can.Frame) {
	g.stats.ReceivedByPort[from]++
	if !g.filter(from, f) {
		g.stats.Dropped++
		return
	}
	to := 1 - from
	if err := g.ports[to].ctl.Enqueue(f); err == nil {
		g.stats.ForwardedByPort[to]++
	}
}

// Port is one side of the gateway; it implements bus.Node.
type Port struct {
	index int
	ctl   *controller.Controller
}

var _ bus.Node = (*Port)(nil)

// Controller exposes the port's protocol controller.
func (p *Port) Controller() *controller.Controller { return p.ctl }

// Drive implements bus.Node.
func (p *Port) Drive(t bus.BitTime) can.Level { return p.ctl.Drive(t) }

// Observe implements bus.Node.
func (p *Port) Observe(t bus.BitTime, level can.Level) { p.ctl.Observe(t, level) }
