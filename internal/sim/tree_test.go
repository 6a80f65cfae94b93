package sim

import (
	"math"
	"math/rand"
	"testing"
)

// TestTreeMatchesScan drives the event queue's winner tree through random
// leaf sets and removals and checks it against a linear (clock, index)
// scan after every update. Clocks come from a small set so ties are
// common, and idle leaves are +Inf, as in a real run.
func TestTreeMatchesScan(t *testing.T) {
	clocks := []float64{0, 0.5, 1, 1, 2.5, 7, 1e9}
	for _, cores := range []int{1, 2, 3, 5, 16, 17, 64} {
		rng := rand.New(rand.NewSource(int64(cores)))
		m := &Machine{tree: newTree(cores)}
		keys := make([]uint64, cores)
		for i := range keys {
			keys[i] = idleKey
		}
		for n := 0; n < 20000; n++ {
			c := rng.Intn(cores)
			key := uint64(idleKey)
			if rng.Intn(4) != 0 {
				key = math.Float64bits(clocks[rng.Intn(len(clocks))])
			}
			keys[c] = key
			root, horizon := m.setLeaf(c, key)

			// The scan: strictly smaller key wins, ties to the lowest index.
			best, others := 0, uint64(idleKey)
			for i, k := range keys {
				if k < keys[best] {
					best = i
				}
				if i != c && k < others {
					others = k
				}
			}
			if keys[best] != idleKey {
				if int(root) != best || m.tree[1] != (treeNode{keys[best], int32(best)}) {
					t.Fatalf("cores=%d update %d: root (%d, %x), tree[1] %+v; scan picks (%d, %x)",
						cores, n, root, m.tree[1].key, m.tree[1], best, keys[best])
				}
			} else if m.tree[1].key != idleKey {
				t.Fatalf("cores=%d update %d: every leaf idle but root key %x", cores, n, m.tree[1].key)
			}
			if int(root) == c && horizon != others {
				t.Fatalf("cores=%d update %d: core %d wins with horizon %x, want earliest other clock %x",
					cores, n, c, horizon, others)
			}
		}
	}
}
