package serving

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Exposition builds one /metrics page in the Prometheus text format,
// one `name{key="value",...} value` line per sample, for ParseMetrics
// to read back. Labels are key, value pairs. Names and label keys are
// the caller's constants; label values are escaped (\\, \" and \n), so
// any string round-trips. It only formats: the counters stay where
// they are counted.
type Exposition struct{ page strings.Builder }

// Int writes one integer sample.
func (e *Exposition) Int(name string, v int64, labels ...string) {
	e.sample(name, labels, strconv.FormatInt(v, 10))
}

// Uint writes one counter sample.
func (e *Exposition) Uint(name string, v uint64, labels ...string) {
	e.sample(name, labels, strconv.FormatUint(v, 10))
}

// Float writes one float sample in the shortest form that parses back
// to v (+Inf, -Inf and NaN included).
func (e *Exposition) Float(name string, v float64, labels ...string) {
	e.sample(name, labels, strconv.FormatFloat(v, 'g', -1, 64))
}

// Bool writes a 0/1 gauge.
func (e *Exposition) Bool(name string, v bool, labels ...string) {
	value := "0"
	if v {
		value = "1"
	}
	e.sample(name, labels, value)
}

// Histogram writes a histogram block: name{quantile="0.5"|"0.99"}, the
// cumulative name_bucket{le=...} series ending at le="+Inf", name_sum
// and name_count, each with labels ahead of its own.
func (e *Exposition) Histogram(name string, s HistogramSnapshot, labels ...string) {
	with := func(key, value string) []string { return append(labels[:len(labels):len(labels)], key, value) }
	e.Float(name, s.Quantile(0.50), with("quantile", "0.5")...)
	e.Float(name, s.Quantile(0.99), with("quantile", "0.99")...)
	var cum int64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		e.Int(name+"_bucket", cum, with("le", strconv.FormatFloat(bound, 'g', -1, 64))...)
	}
	e.Int(name+"_bucket", s.Total, with("le", "+Inf")...)
	e.Float(name+"_sum", s.SumMs, labels...)
	e.Int(name+"_count", s.Total, labels...)
}

// WriteTo sends the page in one write.
func (e *Exposition) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, e.page.String())
	return int64(n), err
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func (e *Exposition) sample(name string, labels []string, value string) {
	e.page.WriteString(name)
	sep := "{"
	for i := 0; i+1 < len(labels); i += 2 {
		e.page.WriteString(sep + labels[i] + `="` + labelEscaper.Replace(labels[i+1]) + `"`)
		sep = ","
	}
	if sep == "," {
		e.page.WriteByte('}')
	}
	e.page.WriteString(" " + value + "\n")
}

// Sample is one parsed series.
type Sample struct {
	Name   string
	Labels map[string]string // nil without labels
	Value  float64
}

// ParseMetrics reads a page Exposition wrote. Blank and # lines are
// skipped; any other line that is not a well-formed sample is an error
// naming its line number.
func ParseMetrics(r io.Reader) ([]Sample, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("metrics read: %w", err)
	}
	var out []Sample
	for n, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		s, ok := parseSample(line)
		if !ok {
			return nil, fmt.Errorf("metrics line %d: malformed sample %q", n+1, line)
		}
		out = append(out, s)
	}
	return out, nil
}

var labelUnescaper = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")

// parseSample parses `name{key="value",...} value`. The value follows
// the last space: a label value may hold spaces, a number cannot.
func parseSample(line string) (Sample, bool) {
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return Sample{}, false
	}
	v, err := strconv.ParseFloat(line[sp+1:], 64)
	name, labels, hasLabels := strings.Cut(line[:sp], "{")
	s := Sample{Name: name, Value: v}
	ok := err == nil && validName(name, true)
	if ok && hasLabels {
		s.Labels = map[string]string{}
		labels, ok = strings.CutSuffix(labels, "}")
		for ok && labels != "" {
			var key string
			key, labels, ok = strings.Cut(labels, `="`)
			end := 0 // the closing quote: the first one no backslash escapes
			for ; end < len(labels) && labels[end] != '"'; end++ {
				if labels[end] == '\\' {
					end++
				}
			}
			if ok = ok && validName(key, false) && end < len(labels); ok {
				s.Labels[key] = labelUnescaper.Replace(labels[:end])
				labels = labels[end+1:]
				if labels != "" {
					labels, ok = strings.CutPrefix(labels, ",")
				}
			}
		}
	}
	return s, ok
}

// validName reports whether s is a metric name ([a-zA-Z_:][a-zA-Z0-9_:]*)
// or, without colons, a label name.
func validName(s string, colon bool) bool {
	for i, c := range []byte(s) {
		if !(c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || i > 0 && '0' <= c && c <= '9' || colon && c == ':') {
			return false
		}
	}
	return s != ""
}
