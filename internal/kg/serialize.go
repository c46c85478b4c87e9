package kg

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// edgeView is the read surface the row-oriented exporters need; both
// the mutable Graph and the frozen Snapshot satisfy it, so JSONL and
// TSV export work identically on either.
type edgeView interface {
	Edges() []Edge
	Node(id string) (Node, bool)
}

// labelOf resolves a node label for an exporter row. A failed lookup
// means the graph holds a dangling edge — it used to silently emit an
// empty label; now it is an error naming the broken edge.
func labelOf(v edgeView, e Edge, end, id string) (string, error) {
	n, ok := v.Node(id)
	if !ok {
		return "", fmt.Errorf("kg: export: edge %s -[%s]-> %s references unknown %s node %q",
			e.Head, e.Relation, e.Tail, end, id)
	}
	return n.Label, nil
}

// WriteJSONL writes one JSON object per edge (with embedded node labels),
// the interchange format used by downstream feature pipelines.
func (g *Graph) WriteJSONL(w io.Writer) error { return writeJSONL(g, w) }

// WriteJSONL is the frozen-view equivalent of Graph.WriteJSONL; the
// rows are byte-identical (same key-sorted edge order).
func (s *Snapshot) WriteJSONL(w io.Writer) error { return writeJSONL(s, w) }

func writeJSONL(v edgeView, w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	type rec struct {
		Head      string  `json:"head"`
		HeadLabel string  `json:"head_label"`
		Relation  string  `json:"relation"`
		Tail      string  `json:"tail"`
		TailLabel string  `json:"tail_label"`
		Behavior  string  `json:"behavior"`
		Domain    string  `json:"domain"`
		Plausible float64 `json:"plausible"`
		Typical   float64 `json:"typical"`
		Support   int     `json:"support"`
	}
	for _, e := range v.Edges() {
		hl, err := labelOf(v, e, "head", e.Head)
		if err != nil {
			return err
		}
		tl, err := labelOf(v, e, "tail", e.Tail)
		if err != nil {
			return err
		}
		if err := enc.Encode(rec{
			Head: e.Head, HeadLabel: hl,
			Relation: string(e.Relation),
			Tail:     e.Tail, TailLabel: tl,
			Behavior: string(e.Behavior), Domain: string(e.Domain),
			Plausible: e.PlausibleScore, Typical: e.TypicalScore,
			Support: e.Support,
		}); err != nil {
			return fmt.Errorf("kg: encode jsonl: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("kg: flush jsonl: %w", err)
	}
	return nil
}

// WriteTSV writes a head\trelation\ttail\tscore table.
func (g *Graph) WriteTSV(w io.Writer) error { return writeTSV(g, w) }

// WriteTSV is the frozen-view equivalent of Graph.WriteTSV; the rows
// are byte-identical (same key-sorted edge order).
func (s *Snapshot) WriteTSV(w io.Writer) error { return writeTSV(s, w) }

func writeTSV(v edgeView, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "head\trelation\ttail\tplausible\ttypical\tsupport"); err != nil {
		return err
	}
	for _, e := range v.Edges() {
		tl, err := labelOf(v, e, "tail", e.Tail)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%s\t%.4f\t%.4f\t%d\n",
			e.Head, e.Relation, sanitizeTSV(tl),
			e.PlausibleScore, e.TypicalScore, e.Support); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("kg: flush tsv: %w", err)
	}
	return nil
}

func sanitizeTSV(s string) string {
	s = strings.ReplaceAll(s, "\t", " ")
	return strings.ReplaceAll(s, "\n", " ")
}
