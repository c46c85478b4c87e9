package allocfree

import "fmt"

// Known-bad: an annotated function riddled with hidden allocation
// sites; the checker reports each construct.

//cosmo:alloc-free
func leaky(xs []int, s string) int {
	var out []int
	out = append(out, len(xs)) // line 11: finding (no cap evidence)
	m := make(map[string]int)  // line 12: finding (map make)
	ch := make(chan int, 1)    // line 13: finding (channel make)
	p := new(int)              // line 14: finding (new)
	lits := []int{1, 2}        // line 15: finding (slice literal)
	b := []byte(s)             // line 16: finding (string->[]byte copy)
	msg := s + "!"             // line 17: finding (string concat)
	cl := func() int { return len(xs) } // line 18: finding (capturing closure)
	boxed := any(s)            // line 19: finding (interface conversion boxes)
	consume(len(msg))          // line 20: finding (non-pointer arg boxed into interface param)
	fmt.Println()              // line 21: finding (fmt call)
	_ = boxed
	return len(out) + len(m) + cap(ch) + *p + lits[0] + len(b) + cl()
}

func consume(v any) {}

// Type parameters: each conversion copies for one instantiation, a map
// write keeps its key, and a concrete operand keeps the rule above.

type key interface{ string | []byte }

//cosmo:alloc-free
func leakyKey[K key](m map[string]int, q K, s string, b []byte) bool {
	str := string(q)  // line 35: finding (copies for K = []byte)
	bs := []byte(q)   // line 36: finding (copies for K = string)
	k := K(s)         // line 37: finding (copies for K = []byte)
	m[string(q)] = 1  // line 38: finding (map write)
	m[string(q)]++    // line 39: finding (map write)
	m[string(q)] += 2 // line 40: finding (map write)
	return len(str)+len(bs)+len(k) > 0 && string(b) == s // line 41: finding (concrete operand)
}
