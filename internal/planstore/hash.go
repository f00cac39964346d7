package planstore

import (
	"hash/crc32"
	"math"

	"pmedic/internal/flow"
	"pmedic/internal/topo"
)

// checksum is the file's frame checksum — CRC32-IEEE, matching the WAL's.
func checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

const (
	fnvOffset = uint64(14695981039346656037)
	fnvPrime  = uint64(1099511628211)
)

// TopoHash fingerprints everything a compiled plan depends on: the graph
// (names and coordinates drive delays), the control plane (sites, domains,
// capacities), and the workload generation options (flows are deterministic
// given graph + options, so hashing the options covers the flows). A daemon
// whose deployment hashes differently from a store's header must not serve
// its plans — switch indices, delays, and capacities would all be stale.
func TopoHash(dep *topo.Deployment, flows *flow.Set) uint64 {
	h := fnvOffset
	mix := func(v uint64) {
		h = (h ^ v) * fnvPrime
	}
	mixStr := func(s string) {
		mix(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			mix(uint64(s[i]))
		}
	}

	g := dep.Graph
	mix(uint64(g.NumNodes()))
	for _, n := range g.Nodes() {
		mixStr(n.Name)
		mix(math.Float64bits(n.Lat))
		mix(math.Float64bits(n.Lon))
	}
	edges := g.Edges()
	mix(uint64(len(edges)))
	for _, e := range edges {
		mix(uint64(e.A))
		mix(uint64(e.B))
	}

	mix(uint64(len(dep.Controllers)))
	for _, c := range dep.Controllers {
		mix(uint64(c.Site))
		mix(uint64(c.Capacity))
		mix(uint64(len(c.Domain)))
		for _, sw := range c.Domain {
			mix(uint64(sw))
		}
	}

	opts := flows.Options()
	// A removed pair-ordering flag was mixed here, always 0 in practice; the
	// constant keeps every compiled store's hash valid.
	mix(0)
	mix(uint64(opts.Slack))
	mix(uint64(opts.Limit))
	mix(uint64(flows.Len()))
	return h
}
