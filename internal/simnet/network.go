package simnet

import (
	"fmt"
	"time"
)

// NodeID identifies an endpoint on the simulated network. IDs are free-form
// strings, conventionally "btc/3" for Bitcoin nodes, "ic/0" for IC replicas,
// "adapter/0" for Bitcoin adapters.
type NodeID string

// Endpoint receives messages delivered by the network.
type Endpoint interface {
	// Receive handles a message from another node. It runs on the
	// simulation goroutine; implementations must not block.
	Receive(from NodeID, msg any)
}

// LatencyModel samples a one-way message delay.
type LatencyModel struct {
	// Base is the minimum one-way latency.
	Base time.Duration
	// Jitter is the maximum additional uniformly distributed delay.
	Jitter time.Duration
}

// sample draws a delay using the scheduler's RNG.
func (l LatencyModel) sample(s *Scheduler) time.Duration {
	d := l.Base
	if l.Jitter > 0 {
		d += time.Duration(s.Rand().Int63n(int64(l.Jitter)))
	}
	return d
}

// defaultLatency is the one-way delay of a link whose profile sets no
// latency: 20ms base, 30ms jitter — a rough WAN profile.
var defaultLatency = LatencyModel{Base: 20 * time.Millisecond, Jitter: 30 * time.Millisecond}

// Network is an in-process message-passing fabric with per-link profiles
// (latency, loss, spikes, flapping) and partitions. All delivery happens via
// the scheduler, so a simulation remains fully deterministic.
type Network struct {
	sched     *Scheduler
	endpoints map[NodeID]Endpoint
	// partition maps a node to its partition group; nodes in different
	// groups cannot exchange messages. Empty string means the default group.
	partition map[NodeID]string
	// downNodes cannot send or receive (crash faults).
	downNodes map[NodeID]bool
	// links holds per-directed-link profiles; a link without an entry is
	// planned by unprofiled, whose zero LinkProfile keeps no state.
	links      map[linkKey]*link
	unprofiled link
	// stats
	sent      int64
	delivered int64
	dropped   int64
}

// NewNetwork creates a network on a scheduler. Every link starts lossless
// at the default latency until SetLinkProfile degrades it.
func NewNetwork(s *Scheduler) *Network {
	return &Network{
		sched:     s,
		endpoints: make(map[NodeID]Endpoint),
		partition: make(map[NodeID]string),
		downNodes: make(map[NodeID]bool),
	}
}

// Scheduler returns the scheduler the network delivers on.
func (n *Network) Scheduler() *Scheduler { return n.sched }

// Register attaches an endpoint under an ID. Re-registering replaces the
// previous endpoint (used to simulate restarts).
func (n *Network) Register(id NodeID, ep Endpoint) {
	n.endpoints[id] = ep
}

// SetDown marks a node as crashed (true) or recovered (false).
func (n *Network) SetDown(id NodeID, down bool) {
	if down {
		n.downNodes[id] = true
	} else {
		delete(n.downNodes, id)
	}
}

// IsDown reports whether a node is crashed.
func (n *Network) IsDown(id NodeID) bool { return n.downNodes[id] }

// SetPartition assigns a node to a partition group. Nodes only communicate
// within their group. The empty group is the default for all nodes.
func (n *Network) SetPartition(id NodeID, group string) {
	if group == "" {
		delete(n.partition, id)
	} else {
		n.partition[id] = group
	}
}

// HealPartitions returns every node to the default group.
func (n *Network) HealPartitions() {
	n.partition = make(map[NodeID]string)
}

// Send schedules delivery of msg from one node to another. Messages to
// unknown, crashed, or partitioned-away nodes are silently dropped, like
// packets on a real network.
func (n *Network) Send(from, to NodeID, msg any) {
	n.sent++
	if n.downNodes[from] || n.downNodes[to] {
		n.dropped++
		return
	}
	if n.partition[from] != n.partition[to] {
		n.dropped++
		return
	}
	l := n.links[linkKey{from, to}]
	if l == nil {
		l = &n.unprofiled
	}
	drop, delay := l.plan(n)
	if drop {
		n.dropped++
		return
	}
	n.sched.After(delay, func() {
		ep := n.endpoints[to]
		if ep == nil || n.downNodes[to] {
			n.dropped++
			return
		}
		// Re-check the partition at delivery time: a partition raised while
		// the message was in flight cuts it off.
		if n.partition[from] != n.partition[to] {
			n.dropped++
			return
		}
		n.delivered++
		ep.Receive(from, msg)
	})
}

// Stats returns cumulative (sent, delivered, dropped) counters.
func (n *Network) Stats() (sent, delivered, dropped int64) {
	return n.sent, n.delivered, n.dropped
}

// String summarizes the network state for debugging.
func (n *Network) String() string {
	return fmt.Sprintf("simnet{nodes=%d sent=%d delivered=%d dropped=%d}",
		len(n.endpoints), n.sent, n.delivered, n.dropped)
}
