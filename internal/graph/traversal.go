package graph

// bfsDistances runs a breadth-first search over the given adjacency lists
// starting at src and returns the distance to every node, with -1 marking
// unreachable nodes.
func bfsDistances(adj [][]int, src int) []int {
	dist := make([]int, len(adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// ConnectedComponents returns the weakly connected components of the graph
// as slices of node ids, largest first.
func (g *Digraph) ConnectedComponents() [][]int {
	adj := g.undirectedSimple()
	seen := make([]bool, len(adj))
	var comps [][]int
	for s := range adj {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && len(comps[j]) > len(comps[j-1]); j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
	return comps
}

// IsConnected reports whether the undirected simple projection is a single
// connected component. Graphs with fewer than two nodes are connected.
func (g *Digraph) IsConnected() bool {
	if len(g.out) < 2 {
		return true
	}
	return len(g.ConnectedComponents()) == 1
}
