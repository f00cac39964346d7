package topo

import "fmt"

// Controller describes one SDN controller of a deployment: the switch site it
// is co-located with, the switch domain it controls, and its control-plane
// processing capacity measured — as in the paper — in the number of flows it
// can control without queueing delay.
type Controller struct {
	Site     NodeID
	Domain   []NodeID
	Capacity int
}

// Deployment is a topology together with its control plane: a set of
// controllers partitioning the switches into domains.
type Deployment struct {
	Graph       *Graph
	Controllers []Controller
}

// Validate checks that the graph is valid and that the controller domains
// form a partition of the switch set.
func (d *Deployment) Validate() error {
	if err := d.Graph.Validate(); err != nil {
		return err
	}
	seen := make(map[NodeID]int, d.Graph.NumNodes())
	for j, c := range d.Controllers {
		if c.Capacity <= 0 {
			return fmt.Errorf("topo: controller %d has non-positive capacity %d", j, c.Capacity)
		}
		if !d.Graph.valid(c.Site) {
			return fmt.Errorf("topo: controller %d site %d: %w", j, c.Site, ErrNodeOutOfRange)
		}
		for _, sw := range c.Domain {
			if !d.Graph.valid(sw) {
				return fmt.Errorf("topo: controller %d domain switch %d: %w", j, sw, ErrNodeOutOfRange)
			}
			if prev, dup := seen[sw]; dup {
				return fmt.Errorf("topo: switch %d in domains of controllers %d and %d", sw, prev, j)
			}
			seen[sw] = j
		}
	}
	if len(seen) != d.Graph.NumNodes() {
		return fmt.Errorf("topo: domains cover %d of %d switches", len(seen), d.Graph.NumNodes())
	}
	return nil
}

// DefaultControllerCapacity is the per-controller control capacity used by
// the paper's evaluation ("the processing ability of each controller is 500").
const DefaultControllerCapacity = 500

// attCity is one row of the embedded dataset.
type attCity struct {
	name     string
	lat, lon float64
}

// attCities lists the 25 switch sites of the evaluation topology in node-ID
// order. The real Topology Zoo ATT GraphML cannot be fetched offline, so this
// is a faithful stand-in: a US national backbone with 25 nodes and 56
// undirected (112 directed) links whose structure mirrors the paper's
// Table III — six controller sites at nodes {2, 5, 6, 13, 20, 22}, domain
// sizes {4, 4, 4, 5, 2, 6}, and a dominant mid-continent hub (node 13,
// Chicago) that carries the largest flow count. See DESIGN.md §3.
var attCities = [...]attCity{
	0:  {"Boston", 42.3601, -71.0589},
	1:  {"New York", 40.7128, -74.0060},
	2:  {"Atlanta", 33.7490, -84.3880},
	3:  {"Charlotte", 35.2271, -80.8431},
	4:  {"New Orleans", 29.9511, -90.0715},
	5:  {"Dallas", 32.7767, -96.7970},
	6:  {"Philadelphia", 39.9526, -75.1652},
	7:  {"Washington DC", 38.9072, -77.0369},
	8:  {"Houston", 29.7604, -95.3698},
	9:  {"Orlando", 28.5384, -81.3789},
	10: {"Detroit", 42.3314, -83.0458},
	11: {"Cleveland", 41.4993, -81.6944},
	12: {"Indianapolis", 39.7684, -86.1581},
	13: {"Chicago", 41.8781, -87.6298},
	14: {"San Antonio", 29.4241, -98.4936},
	15: {"St. Louis", 38.6270, -90.1994},
	16: {"Miami", 25.7617, -80.1918},
	17: {"Seattle", 47.6062, -122.3321},
	18: {"Portland", 45.5152, -122.6784},
	19: {"Denver", 39.7392, -104.9903},
	20: {"Salt Lake City", 40.7608, -111.8910},
	21: {"San Francisco", 37.7749, -122.4194},
	22: {"Los Angeles", 34.0522, -118.2437},
	23: {"San Diego", 32.7157, -117.1611},
	24: {"Phoenix", 33.4484, -112.0740},
}

// attEdges is the 56-entry undirected link list of the embedded topology.
var attEdges = [...][2]NodeID{
	// Northeast.
	{0, 1}, {0, 6}, {0, 7}, {1, 6}, {1, 7}, {6, 7}, {1, 11}, {1, 13}, {3, 7}, {2, 7},
	// Southeast.
	{2, 3}, {3, 9}, {2, 9}, {2, 16}, {9, 16}, {2, 4}, {2, 13}, {4, 16},
	// South.
	{4, 8}, {4, 9}, {4, 14}, {5, 8}, {8, 14}, {8, 24}, {5, 14}, {14, 24}, {5, 13}, {5, 19}, {5, 24}, {2, 8}, {5, 22}, {5, 15},
	// Midwest (node 13 is the hub; its domain neighbors are spokes).
	{10, 11}, {10, 12}, {10, 13}, {11, 13}, {12, 13}, {13, 15}, {12, 15},
	// Mountain.
	{19, 20}, {13, 19}, {19, 24}, {17, 20}, {18, 20}, {20, 21}, {20, 22}, {20, 24}, {17, 19}, {19, 21}, {19, 22},
	// West coast.
	{17, 18}, {18, 21}, {21, 22}, {22, 23}, {22, 24}, {23, 24},
}

// attDomains maps each controller site to its switch domain, mirroring the
// structure of the paper's Table III: domain sizes {4, 4, 4, 5, 2, 6}, one
// hub-heavy domain (C13), and one lightly loaded two-switch domain (C16,
// Florida) whose controller is the only one with enough residual capacity to
// absorb a hub switch whole — the paper's C20 analog, whose joint failure
// with C13 produces the headline recovery gap.
var attDomains = map[NodeID][]NodeID{
	2:  {2, 3, 4, 8},
	5:  {5, 14, 19, 20},
	6:  {0, 1, 6, 7},
	13: {10, 11, 12, 13, 15},
	16: {9, 16},
	22: {17, 18, 21, 22, 23, 24},
}

// attControllerOrder fixes the controller indexing (C_1..C_6 in the paper's
// notation) to the ascending site order used by Table III.
var attControllerOrder = [...]NodeID{2, 5, 6, 13, 16, 22}

// ATT builds the embedded 25-node / 112-directed-link evaluation topology
// with its six-controller deployment (capacity 500 each). The returned
// deployment is validated; an error indicates a corrupted embedded dataset.
func ATT() (*Deployment, error) {
	g := &Graph{}
	for _, c := range attCities {
		g.AddNode(c.name, c.lat, c.lon)
	}
	for _, e := range attEdges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("topo: build ATT: %w", err)
		}
	}
	d := &Deployment{Graph: g}
	for _, site := range attControllerOrder {
		dom := attDomains[site]
		domain := make([]NodeID, len(dom))
		copy(domain, dom)
		d.Controllers = append(d.Controllers, Controller{
			Site:     site,
			Domain:   domain,
			Capacity: DefaultControllerCapacity,
		})
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("topo: build ATT: %w", err)
	}
	return d, nil
}
