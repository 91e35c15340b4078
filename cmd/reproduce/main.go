// Command reproduce regenerates every table and figure of the paper
// (see docs/ARCHITECTURE.md) and prints paper-vs-measured.
//
// Usage:
//
//	reproduce -exp all
//	reproduce -exp table1 | fig1 | ktruss-example | fig2 | fig3 | alg4 | ablations
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"graphulo"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all | table1 | fig1 | ktruss-example | fig2 | fig3 | alg4 | ablations")
	flag.Parse()

	experiments := map[string]func(){
		"table1":         table1,
		"fig1":           fig1,
		"ktruss-example": ktrussExample,
		"fig2":           fig2,
		"fig3":           fig3,
		"alg4":           alg4,
		"ablations":      ablations,
	}
	if *exp == "all" {
		for _, name := range []string{"fig1", "ktruss-example", "fig2", "alg4", "table1", "fig3", "ablations"} {
			fmt.Printf("=== %s ===\n", name)
			experiments[name]()
			fmt.Println()
		}
		return
	}
	f, ok := experiments[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	f()
}

// table1 demonstrates one or more algorithms per class of the paper's
// Table I.
func table1() {
	g := graphulo.DedupGraph(graphulo.RMAT(graphulo.Graph500(8, 3)))
	adj := graphulo.AdjacencyPat(g)
	type row struct {
		class, algorithm, result string
	}
	timeIt := func(f func() string) (string, time.Duration) {
		start := time.Now()
		r := f()
		return r, time.Since(start)
	}
	var rows []row
	add := func(class, alg string, f func() string) {
		r, d := timeIt(f)
		rows = append(rows, row{class, alg, fmt.Sprintf("%s  (%v)", r, d.Round(time.Microsecond))})
	}
	add("Exploration & Traversal", "BFS (SpMSpV, or.and)", func() string {
		levels := graphulo.BFSLevels(adj, 0)
		reached := 0
		for _, l := range levels {
			if l >= 0 {
				reached++
			}
		}
		return fmt.Sprintf("reached %d/%d vertices", reached, g.N)
	})
	add("Exploration & Traversal", "connected components", func() string {
		sizes := map[int]int{}
		for _, c := range graphulo.ConnectedComponents(adj) {
			sizes[c]++
		}
		return fmt.Sprintf("%d components", len(sizes))
	})
	add("Subgraph Detection", "k-truss (Algorithm 1)", func() string {
		E := graphulo.Incidence(g)
		truss := graphulo.KTrussEdge(E, 4)
		return fmt.Sprintf("4-truss keeps %d/%d edges", truss.Rows(), E.Rows())
	})
	add("Subgraph Detection", "vertex nomination", func() string {
		scores := graphulo.VertexNomination(adj, []int{0}, 0.15, 500)
		scores[0] = 0 // the cue itself is not a nominee
		top := slices.Index(scores, slices.Max(scores))
		return fmt.Sprintf("top nominee for cue 0: vertex %d, score %.4g", top, scores[top])
	})
	add("Centrality", "PageRank (power method)", func() string {
		res := graphulo.PageRank(adj, 0.15, 1e-12, 1000)
		return fmt.Sprintf("converged in %d iterations", res.Iterations)
	})
	add("Centrality", "eigenvector, Katz, HITS", func() string {
		e, k, h := graphulo.EigenvectorCentrality(adj, 1e-10, 2000), graphulo.KatzCentrality(adj, 0.001, 1e-12, 500), graphulo.HITS(adj, 1e-10, 2000)
		return fmt.Sprintf("converged in %d, %d, %d iterations", e.Iterations, k.Iterations, h.Iterations)
	})
	add("Centrality", "closeness, clustering", func() string {
		return fmt.Sprintf("max closeness %.4f, max harmonic %.4g, clustering global %.4f max local %.4f",
			slices.Max(graphulo.ClosenessCentrality(adj)), slices.Max(graphulo.HarmonicCentrality(adj)),
			graphulo.GlobalClustering(adj), slices.Max(graphulo.LocalClustering(adj)))
	})
	add("Centrality", "betweenness (Brandes)", func() string {
		bc := graphulo.BetweennessCentrality(adj)
		top := slices.Index(bc, slices.Max(bc))
		return fmt.Sprintf("max betweenness %.4g at vertex %d", bc[top], top)
	})
	add("Similarity", "Jaccard (Algorithm 2)", func() string {
		J := graphulo.Jaccard(adj)
		return fmt.Sprintf("%d similar pairs", J.NNZ()/2)
	})
	add("Community Detection", "NMF (Algorithms 3-5)", func() string {
		corpus := graphulo.NewTweets(graphulo.TweetCorpusConfig{NumTweets: 1000, Seed: 5})
		m, _, _ := corpus.A.Matrix()
		res := graphulo.NMF(m, graphulo.NMFConfig{Topics: 5, MaxIter: 30, Seed: 2})
		return fmt.Sprintf("k=5 residual %.1f", res.Residual)
	})
	add("Community Detection", "truncated SVD (power method)", func() string {
		res := graphulo.TruncatedSVD(adj, 4, 1e-10, 2000)
		return fmt.Sprintf("top-4 singular values %.4g", res.S)
	})
	add("Community Detection", "label propagation", func() string {
		labels := graphulo.LabelPropagation(adj, 100, 3)
		return fmt.Sprintf("%d communities, modularity %.4f",
			graphulo.CommunityCount(labels), graphulo.Modularity(adj, labels))
	})
	add("Prediction", "link prediction (Jaccard)", func() string {
		preds := graphulo.LinkPrediction(adj, 3)
		if len(preds) == 0 {
			return "no candidates"
		}
		return fmt.Sprintf("top link (%d,%d) score %.3f", preds[0].U, preds[0].V, preds[0].Score)
	})
	add("Shortest Path", "Bellman-Ford (min.plus)", func() string {
		var ts []graphulo.Triple
		for i, e := range g.Edges {
			w := 1 + float64(i%5)
			ts = append(ts, graphulo.Triple{Row: e.U, Col: e.V, Val: w},
				graphulo.Triple{Row: e.V, Col: e.U, Val: w})
		}
		w := graphulo.NewMatrix(g.N, g.N, ts, graphulo.MinPlus)
		dist, _ := graphulo.BellmanFord(w, 0)
		reach := 0
		for _, d := range dist {
			if d < 1e308 {
				reach++
			}
		}
		return fmt.Sprintf("reaches %d vertices", reach)
	})
	fmt.Printf("Table I reproduction on RMAT scale 8 (%d vertices, %d edges):\n", g.N, len(g.Edges))
	for _, r := range rows {
		fmt.Printf("  %-24s %-28s %s\n", r.class, r.algorithm, r.result)
	}
}

// fig1 prints the example graph and its matrices.
func fig1() {
	g := graphulo.PaperGraph()
	fmt.Println("Fig. 1 graph: 5 vertices, 6 edges")
	fmt.Println("incidence matrix E (paper §III.B):")
	fmt.Print(graphulo.Incidence(g))
	fmt.Println("adjacency matrix A:")
	fmt.Print(graphulo.AdjacencyPat(g))
}

// ktrussExample replays the §III.B worked example step by step.
func ktrussExample() {
	g := graphulo.PaperGraph()
	E := graphulo.Incidence(g)
	Et := graphulo.Transpose(E)
	gram := graphulo.SpGEMM(Et, E, graphulo.PlusTimes)
	A := noDiag(gram)
	fmt.Println("A = EᵀE − diag(EᵀE):")
	fmt.Print(A)
	R := graphulo.SpGEMM(E, A, graphulo.PlusTimes)
	fmt.Println("R = EA (matches the paper's printed matrix):")
	fmt.Print(R)
	ind := graphulo.Apply(R, func(v float64) float64 {
		if v == 2 {
			return 1
		}
		return 0
	})
	s := graphulo.ReduceRows(ind, graphulo.PlusMonoid)
	fmt.Println("support s = (R==2)·1:", s, "(paper prints [1 1 1 1 2 0]; its 5-entry vector is a typo)")
	truss := graphulo.KTrussEdge(E, 3)
	fmt.Printf("3-truss: edge e6 removed, %d edges remain:\n", truss.Rows())
	fmt.Print(truss)
}

// fig2 reproduces the Jaccard worked example.
func fig2() {
	adj := graphulo.AdjacencyPat(graphulo.PaperGraph())
	J := graphulo.Jaccard(adj)
	fmt.Println("Jaccard coefficients of the Fig. 1 graph (paper Fig. 2):")
	fmt.Print(J)
	fmt.Println("paper values: J(1,2)=1/5, J(1,3)=1/2, J(1,4)=1/4, J(1,5)=1/3, J(2,4)=2/3")
	fmt.Printf("measured:     J(1,2)=%.4f J(1,3)=%.4f J(1,4)=%.4f J(1,5)=%.4f J(2,4)=%.4f\n",
		J.At(0, 1), J.At(0, 2), J.At(0, 3), J.At(0, 4), J.At(1, 3))
}

// fig3 runs the 20k-tweet topic modeling experiment.
func fig3() {
	corpus := graphulo.NewTweets(graphulo.TweetCorpusConfig{NumTweets: 20000, Seed: 42})
	m, docs, terms := corpus.A.Matrix()
	fmt.Printf("synthetic corpus: %d tweets, %d terms, %d entries\n",
		len(docs), len(terms), m.NNZ())
	start := time.Now()
	res := graphulo.NMF(m, graphulo.NMFConfig{Topics: 5, MaxIter: 40, Seed: 7})
	fmt.Printf("NMF k=5: %d iterations, residual %.1f, %v\n",
		res.Iterations, res.Residual, time.Since(start).Round(time.Millisecond))
	top := graphulo.TopTerms(res.H, 6)
	for t, ids := range top {
		fmt.Printf("topic %d:", t+1)
		for _, id := range ids {
			fmt.Printf(" %s", terms[id])
		}
		fmt.Println()
	}
	assigned := graphulo.AssignTopics(res.W)
	truth := make([]int, len(docs))
	for i, d := range docs {
		var id int
		fmt.Sscanf(d, "doc%d", &id)
		truth[i] = corpus.Topic[id]
	}
	fmt.Printf("purity vs planted communities: %.3f (paper: five clean topics)\n",
		graphulo.TopicPurity(assigned, truth, 5))
}

// alg4 checks the Newton–Schulz inverse on random well-conditioned
// matrices.
func alg4() {
	sizes := []int{4, 8, 16, 32}
	for _, n := range sizes {
		m := diagDominant(n)
		start := time.Now()
		inv, iters, ok := graphulo.InverseDense(m, 1e-12, 500)
		el := time.Since(start)
		residual := m.MulDense(inv)
		maxErr := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if d := math.Abs(residual.At(i, j) - want); d > maxErr {
					maxErr = d
				}
			}
		}
		fmt.Printf("n=%2d: converged=%v iterations=%d ‖AX−I‖max=%.2e (%v)\n",
			n, ok, iters, maxErr, el.Round(time.Microsecond))
	}
}

// ablations runs the §IV design-choice comparisons.
func ablations() {
	g := graphulo.DedupGraph(graphulo.RMAT(graphulo.Graph500(9, 5)))
	adj := graphulo.AdjacencyPat(g)
	fmt.Printf("workload: RMAT scale 9 (%d vertices, %d edges)\n", g.N, len(g.Edges))

	// (b) Jaccard: triangular vs dense formulation.
	start := time.Now()
	graphulo.Jaccard(adj)
	tri := time.Since(start)
	start = time.Now()
	graphulo.JaccardDense(adj)
	dense := time.Since(start)
	fmt.Printf("Jaccard triangular %v vs dense %v (speedup %.2fx)\n",
		tri.Round(time.Microsecond), dense.Round(time.Microsecond),
		float64(dense)/float64(tri))

	// (c) server-side vs client multiply.
	db, err := graphulo.Open(graphulo.ClusterConfig{TabletServers: 4})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer db.Close()
	tg, err := db.CreateGraph("Ab")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := tg.Ingest(g); err != nil {
		fmt.Println("error:", err)
		return
	}
	a, at, _ := tg.Tables()
	_, _, _, scanned0 := db.Metrics()
	start = time.Now()
	if _, err := db.TableMult(at, a, "AbSqS", "plus.times"); err != nil {
		fmt.Println("error:", err)
		return
	}
	serverTime := time.Since(start)
	_, _, _, scanned1 := db.Metrics()
	start = time.Now()
	if _, err := db.TableMultClient(at, a, "AbSqC", "plus.times"); err != nil {
		fmt.Println("error:", err)
		return
	}
	clientTime := time.Since(start)
	_, _, _, scanned2 := db.Metrics()
	fmt.Printf("TableMult server-side: %v, %d entries to scan clients\n",
		serverTime.Round(time.Millisecond), scanned1-scanned0)
	fmt.Printf("TableMult thin-client: %v, %d entries to scan clients\n",
		clientTime.Round(time.Millisecond), scanned2-scanned1)
}

// --- helpers ---

func noDiag(m *graphulo.Matrix) *graphulo.Matrix {
	var ts []graphulo.Triple
	for _, t := range m.Triples() {
		if t.Row != t.Col {
			ts = append(ts, t)
		}
	}
	return graphulo.NewMatrix(m.Rows(), m.Cols(), ts, graphulo.PlusTimes)
}

func diagDominant(n int) *graphulo.Dense {
	d := &graphulo.Dense{R: n, C: n, Data: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		row := 0.0
		for j := 0; j < n; j++ {
			if i != j {
				v := float64((i*7+j*3)%5) / 10
				d.Data[i*n+j] = v
				row += v
			}
		}
		d.Data[i*n+i] = row + 1.5
	}
	return d
}
