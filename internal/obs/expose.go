package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// Exposition writes Prometheus text-format (version 0.0.4) metric
// families by hand — no client library. Families are emitted in call
// order; series within a family come from the caller (or, for
// HistogramVec, in deterministic sorted-label order), so the output is
// stable and golden-testable. The first write error sticks and later
// calls no-op.
type Exposition struct {
	w   *bufio.Writer
	err error
}

// Label is one name="value" pair on a series.
type Label struct{ Name, Value string }

// Sample is one labeled series value inside a family.
type Sample struct {
	Labels []Label
	Value  float64
}

// NewExposition wraps w.
func NewExposition(w io.Writer) *Exposition {
	return &Exposition{w: bufio.NewWriter(w)}
}

// Err returns the first write error.
func (e *Exposition) Err() error { return e.err }

// Flush drains the buffer; call once after the last family.
func (e *Exposition) Flush() error {
	if e.err == nil {
		e.err = e.w.Flush()
	}
	return e.err
}

func (e *Exposition) printf(s string) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.WriteString(s)
}

// formatValue renders a sample value: integers without an exponent,
// everything else in shortest-exact form.
func formatValue(v float64) string {
	if v == float64(int64(v)) && v >= -1e15 && v <= 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func (e *Exposition) header(name, typ, help string) {
	e.printf("# HELP " + name + " " + help + "\n")
	e.printf("# TYPE " + name + " " + typ + "\n")
}

func (e *Exposition) sample(name string, labels []Label, value string) {
	e.printf(seriesKey(name, labels) + " " + value + "\n")
}

// seriesKey renders a series' name and labels as the exposition writes
// them: name{a="x",b="y"}, or the bare name when there are no labels.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// Registry emits every series of r, in key order, with one HELP/TYPE
// header per family.
func (e *Exposition) Registry(r *Registry) {
	fams := r.Families()
	for i, f := range fams {
		if i == 0 || f.Name != fams[i-1].Name {
			typ := "counter"
			if f.IsGauge {
				typ = "gauge"
			}
			e.header(f.Name, typ, f.Help)
		}
		e.sample(f.Name, f.Labels, formatValue(f.Value))
	}
}

// GaugeVec emits a labeled gauge family with the given samples, in the
// order given (callers pass them pre-sorted for deterministic output).
func (e *Exposition) GaugeVec(name, help string, samples []Sample) {
	e.header(name, "gauge", help)
	for _, s := range samples {
		e.sample(name, s.Labels, formatValue(s.Value))
	}
}

// HistogramVec emits a histogram family from a vector: cumulative
// _bucket series with le bounds converted from nanoseconds to seconds,
// the +Inf bucket, and the _sum (seconds) / _count series — the standard
// Prometheus histogram triplet. Series appear in sorted-label order.
func (e *Exposition) HistogramVec(v *HistogramVec) {
	e.header(v.Name, "histogram", v.Help)
	v.Each(func(values []string, snap HistSnapshot) {
		base := make([]Label, len(v.LabelNames))
		for i, n := range v.LabelNames {
			base[i] = Label{n, values[i]}
		}
		cum := int64(0)
		for i, bound := range BucketBoundsNs {
			cum += snap.Counts[i]
			le := strconv.FormatFloat(float64(bound)/1e9, 'g', -1, 64)
			e.sample(v.Name+"_bucket", append(base[:len(base):len(base)], Label{"le", le}), strconv.FormatInt(cum, 10))
		}
		e.sample(v.Name+"_bucket", append(base[:len(base):len(base)], Label{"le", "+Inf"}), strconv.FormatInt(snap.Count, 10))
		e.sample(v.Name+"_sum", base, strconv.FormatFloat(float64(snap.SumNs)/1e9, 'g', -1, 64))
		e.sample(v.Name+"_count", base, strconv.FormatInt(snap.Count, 10))
	})
}
