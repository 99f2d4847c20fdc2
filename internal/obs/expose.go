package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition format media type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus encodes every registered metric in the Prometheus text
// exposition format, deterministically: families sorted by name, series
// sorted by label values, histogram buckets cumulative with the trailing
// +Inf, _sum, and _count lines.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if err := f.write(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (f *family) write(w *bufio.Writer) error {
	children := f.sortedChildren()
	if len(children) == 0 {
		return nil
	}
	w.WriteString("# HELP ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(escapeHelp(f.help))
	w.WriteByte('\n')
	w.WriteString("# TYPE ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(f.kind.String())
	w.WriteByte('\n')

	for _, c := range children {
		switch m := c.metric.(type) {
		case *Counter:
			writeSample(w, f.name, "", f.labels, c.values, "", "", formatUint(m.Value()))
		case *Gauge:
			writeSample(w, f.name, "", f.labels, c.values, "", "", formatFloat(m.Value()))
		case *Histogram:
			var cum uint64
			for i := range m.counts {
				cum += m.counts[i].Load()
				le := "+Inf"
				if i < len(m.upper) {
					le = formatFloat(m.upper[i])
				}
				writeSample(w, f.name, "_bucket", f.labels, c.values, "le", le, formatUint(cum))
			}
			writeSample(w, f.name, "_sum", f.labels, c.values, "", "", formatFloat(m.sum.Load()))
			writeSample(w, f.name, "_count", f.labels, c.values, "", "", formatUint(cum))
		}
	}
	return nil
}

// sortedChildren snapshots the family's used series in label-value order:
// their values joined by \xff, which valid UTF-8 values cannot contain.
func (f *family) sortedChildren() []*child {
	var out []*child
	for i := range f.slots {
		if c := f.slots[i].Load(); c != nil {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].values, "\xff") < strings.Join(out[j].values, "\xff")
	})
	return out
}

// writeSample emits one `name{labels} value` line. extraName/extraValue
// append a synthetic label (the histogram `le`) after the real ones.
func writeSample(w *bufio.Writer, name, suffix string, labels, values []string, extraName, extraValue, rendered string) {
	w.WriteString(name)
	w.WriteString(suffix)
	if len(labels) > 0 || extraName != "" {
		w.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteString(l)
			w.WriteString(`="`)
			w.WriteString(escapeLabel(values[i]))
			w.WriteByte('"')
		}
		if extraName != "" {
			if len(labels) > 0 {
				w.WriteByte(',')
			}
			w.WriteString(extraName)
			w.WriteString(`="`)
			w.WriteString(extraValue)
			w.WriteByte('"')
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(rendered)
	w.WriteByte('\n')
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
func escapeHelp(s string) string  { return helpEscaper.Replace(s) }

// Handler returns an http.Handler serving the registry in the Prometheus
// text format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		// Encoding into an http.ResponseWriter only fails when the client
		// goes away; nothing useful to do then.
		_ = r.WritePrometheus(w)
	})
}
