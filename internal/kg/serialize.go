package kg

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
)

// WriteJSONL writes one JSON object per edge (with embedded node labels),
// in key-sorted edge order — the interchange format used by downstream
// feature pipelines.
func (s *Snapshot) WriteJSONL(w io.Writer) error {
	s.touch(maskEdges)
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
	for i := range s.eHead {
		e := s.edgeAt(sym32(i))
		if err := enc.Encode(rec{
			Head: e.Head, HeadLabel: s.labels[s.eHead[i]],
			Relation: string(e.Relation),
			Tail:     e.Tail, TailLabel: s.labels[s.eTail[i]],
			Behavior: string(e.Behavior), Domain: string(e.Domain),
			Plausible: e.PlausibleScore, Typical: e.TypicalScore,
			Support: e.Support,
		}); err != nil {
			return fmt.Errorf("kg: encode jsonl: %w", err)
		}
	}
	runtime.KeepAlive(s) // aliased sections must outlive the last read (mmap-backed snapshots)
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("kg: flush jsonl: %w", err)
	}
	return nil
}

// WriteTSV writes a head\trelation\ttail\tscore table in key-sorted edge
// order.
func (s *Snapshot) WriteTSV(w io.Writer) error {
	s.touch(maskEdges)
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "head\trelation\ttail\tplausible\ttypical\tsupport"); err != nil {
		return err
	}
	for i := range s.eHead {
		e := s.edgeAt(sym32(i))
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%s\t%.4f\t%.4f\t%d\n",
			e.Head, e.Relation, sanitizeTSV(s.labels[s.eTail[i]]),
			e.PlausibleScore, e.TypicalScore, e.Support); err != nil {
			return err
		}
	}
	runtime.KeepAlive(s) // aliased sections must outlive the last read (mmap-backed snapshots)
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("kg: flush tsv: %w", err)
	}
	return nil
}

func sanitizeTSV(s string) string {
	s = strings.ReplaceAll(s, "\t", " ")
	return strings.ReplaceAll(s, "\n", " ")
}
