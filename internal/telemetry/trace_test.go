package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleTrace() *Trace {
	tr := NewTrace()
	pid := tr.Process("supercharged · 1000 prefixes · seed 1")
	tr.Thread(pid, 0, "pipeline")
	tr.Thread(pid, 1, "#0 peer-down [R2]")
	tr.Add(Span{Name: "setup", Cat: "pipeline", PID: pid, TID: 0, Start: 0, Dur: 5 * time.Second})
	tr.Add(Span{Name: "event", Cat: "event", PID: pid, TID: 1, Start: 10 * time.Second, Kind: "peer-down", Peer: "R2"})
	tr.Add(Span{
		Name: "flow-converged", Cat: "pipeline", PID: pid, TID: 1,
		Start: 10*time.Second + 90*time.Millisecond, Dur: 130 * time.Millisecond,
		Prefix: "10.0.0.0/24",
	})
	return tr
}

func TestTraceJSONLRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := tr.Spans(); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip drifted:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"name\":\"ok\"}\nnot json\n")); err == nil {
		t.Fatal("want error on malformed line")
	}
}

// The Chrome export must be one valid JSON object whose events carry the
// ns→µs conversion, the metadata names, and instant markers for
// zero-duration spans.
func TestChromeTraceExport(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	byName := map[string]int{}
	for i, ev := range doc.TraceEvents {
		byName[ev.Name] = i
	}
	pn := doc.TraceEvents[byName["process_name"]]
	if pn.Ph != "M" || pn.Args["name"] != "supercharged · 1000 prefixes · seed 1" {
		t.Fatalf("process metadata %+v", pn)
	}
	setup := doc.TraceEvents[byName["setup"]]
	if setup.Ph != "X" || setup.Dur != 5e6 { // 5 virtual s = 5e6 µs
		t.Fatalf("setup span %+v, want X with dur 5e6µs", setup)
	}
	event := doc.TraceEvents[byName["event"]]
	if event.Ph != "i" || event.TS != 10e6 || event.Args["peer"] != "R2" {
		t.Fatalf("instant event %+v", event)
	}
	conv := doc.TraceEvents[byName["flow-converged"]]
	if conv.TS != 10.09e6 || conv.Dur != 130e3 || conv.Args["prefix"] != "10.0.0.0/24" {
		t.Fatalf("converge span %+v", conv)
	}
}

func TestNilTrace(t *testing.T) {
	var tr *Trace
	tr.Add(Span{Name: "dropped"})
	tr.Thread(1, 0, "x")
	if tr.Process("x") != 0 || tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil trace must drop everything")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil JSONL: err=%v len=%d", err, buf.Len())
	}
	buf.Reset()
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil chrome trace invalid: %v", err)
	}
}

func TestRunTrackerLifecycle(t *testing.T) {
	rt := NewRunTracker(3)
	rt.Start("a")
	rt.Start("b")
	snap := rt.Snapshot()
	if snap.Total != 3 || len(snap.Active) != 2 || snap.Done != 0 {
		t.Fatalf("mid-flight snapshot %+v", snap)
	}
	rt.Finish("a", 10*time.Millisecond, nil)
	rt.Finish("b", time.Millisecond, nil)
	rt.Start("c")
	rt.Finish("c", time.Millisecond, context.DeadlineExceeded)
	snap = rt.Snapshot()
	if snap.Done != 3 || snap.Failed != 1 || len(snap.Active) != 0 {
		t.Fatalf("final snapshot %+v", snap)
	}
	statuses := map[string]string{}
	for _, r := range snap.Recent {
		statuses[r.Key] = r.Status
	}
	want := map[string]string{"a": "ok", "b": "ok", "c": "failed"}
	if !reflect.DeepEqual(statuses, want) {
		t.Fatalf("statuses %v, want %v", statuses, want)
	}

	var nilRT *RunTracker
	nilRT.SetTotal(1)
	nilRT.Start("x")
	nilRT.Finish("x", 0, nil)
	if s := nilRT.Snapshot(); s.Total != 0 || s.Done != 0 {
		t.Fatalf("nil tracker snapshot %+v", s)
	}
}

// The HTTP handler end to end: /metrics in exposition format with the
// scrape content type, /runs as JSON, pprof reachable.
func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("handler_test_total", "help").Add(7)
	rt := NewRunTracker(1)
	rt.Start("unit-1")
	srv := httptest.NewServer(Handler(reg, rt))
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp, sb.String()
	}

	resp, body := get("/metrics")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "handler_test_total 7") {
		t.Fatalf("/metrics: %d\n%s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}

	resp, body = get("/runs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/runs: %d", resp.StatusCode)
	}
	var snap RunSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/runs not JSON: %v\n%s", err, body)
	}
	if snap.Total != 1 || len(snap.Active) != 1 || snap.Active[0].Key != "unit-1" {
		t.Fatalf("/runs snapshot %+v", snap)
	}

	resp, _ = get("/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: %d", resp.StatusCode)
	}

	resp, body = get("/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: %d\n%s", resp.StatusCode, body)
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatalf("GET live server: %v", err)
	}
	resp.Body.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr + "/metrics"); err == nil {
		t.Fatal("server still reachable after Close")
	}
}
