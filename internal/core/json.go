package core

import (
	"encoding/json"
	"io"
)

// Report JSON is the stable structured encoding of a Report: exported
// field names, map keys sorted (encoding/json's map behavior), windows
// labeled via the Window metadata. The schema is pinned by a golden-file
// test (report_schema.golden); extending the Report struct extends the
// schema, which is an intentional, reviewed change.

// MarshalReport renders a report as indented JSON. Reports never carry
// NaN or Inf (every fraction is zero-denominator-guarded), so marshaling
// cannot fail on numeric values.
func MarshalReport(r *Report) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// servedJSON renders a report as it goes out on the wire — MarshalReport's
// bytes and a newline — in a slice of exactly that size: MarshalIndent's
// buffer carries half as much again in slack, which a memo of these would
// keep alive.
func servedJSON(r *Report) ([]byte, error) {
	b, err := MarshalReport(r)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b)+1)
	out[copy(out, b)] = '\n'
	return out, nil
}

// RunJSON is the top-level JSON document of a windowed run: every window
// report in window order, then the cumulative report. Batch runs emit
// the cumulative report alone instead.
type RunJSON struct {
	Windows    []*Report `json:",omitempty"`
	Cumulative *Report
}

// WriteRunJSON writes the windowed-run document: the per-window reports
// (when windows is non-empty) and the cumulative report.
func WriteRunJSON(w io.Writer, windows []*WindowReport, cumulative *Report) error {
	doc := RunJSON{Cumulative: cumulative}
	for _, wr := range windows {
		doc.Windows = append(doc.Windows, wr.Report)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteRun writes a run in format: "json" is WriteRunJSON's document,
// anything else the text tables, after the window summary when there
// are windows.
func WriteRun(w io.Writer, format string, windows []*WindowReport, cumulative *Report) error {
	if format == "json" {
		return WriteRunJSON(w, windows, cumulative)
	}
	text := RenderText(cumulative)
	if len(windows) > 0 {
		text = RenderWindowSummary(windows) + "\n" + text
	}
	_, err := io.WriteString(w, text)
	return err
}
