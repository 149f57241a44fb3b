package api

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"
)

// TestToTrajRejectsBadWireData is the wire-boundary gate: NaN/Inf
// coordinates, empty trajectories and bad point arity must all be typed
// invalid_argument errors instead of flowing into distance kernels.
func TestToTrajRejectsBadWireData(t *testing.T) {
	bad := map[string]Trajectory{
		"empty":      {},
		"nil points": {Points: nil},
		"arity 1":    {Points: [][]float64{{1}}},
		"arity 4":    {Points: [][]float64{{1, 2, 3, 4}}},
		"NaN x":      {Points: [][]float64{{math.NaN(), 0}}},
		"NaN y":      {Points: [][]float64{{0, math.NaN()}}},
		"+Inf x":     {Points: [][]float64{{math.Inf(1), 0}}},
		"-Inf t":     {Points: [][]float64{{0, 0, math.Inf(-1)}}},
		"late NaN":   {Points: [][]float64{{0, 0}, {1, 1}, {math.NaN(), 2}}},
	}
	for name, wt := range bad {
		if _, aerr := wt.ToTraj(); aerr == nil || aerr.Code != CodeInvalidArgument {
			t.Errorf("%s: error %+v, want invalid_argument", name, aerr)
		}
	}

	good := Trajectory{Points: [][]float64{{1, 2}, {3, 4, 5}}}
	tr, aerr := good.ToTraj()
	if aerr != nil {
		t.Fatalf("valid trajectory rejected: %v", aerr)
	}
	if tr.Len() != 2 || tr.Pt(0).T != 0 || tr.Pt(1).T != 5 {
		t.Fatalf("conversion wrong: %+v", tr.Points)
	}
	// round trip through the response-side conversion
	back := FromTraj(tr)
	if len(back.Points) != 2 || back.Points[0][0] != 1 || back.Points[1][2] != 5 {
		t.Fatalf("FromTraj round trip wrong: %+v", back.Points)
	}
}

func TestRectValidate(t *testing.T) {
	if aerr := (Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}).Validate(); aerr != nil {
		t.Fatalf("valid rect rejected: %v", aerr)
	}
	for name, r := range map[string]Rect{
		"inverted x": {MinX: 2, MaxX: 1, MaxY: 1},
		"inverted y": {MinY: 2, MaxX: 1, MaxY: 1},
		"NaN":        {MinX: math.NaN(), MaxX: 1, MaxY: 1},
		"Inf":        {MaxX: math.Inf(1), MaxY: 1},
	} {
		if aerr := r.Validate(); aerr == nil || aerr.Code != CodeInvalidArgument {
			t.Errorf("%s: error %+v, want invalid_argument", name, aerr)
		}
	}
}

func TestErrorModel(t *testing.T) {
	// Errorf + errors.As round trip
	err := func() error { return Errorf(CodeNotFound, "no trajectory %d", 7) }()
	var ae *Error
	if !errors.As(err, &ae) || ae.Code != CodeNotFound {
		t.Fatalf("errors.As failed on %v", err)
	}

	// FromError mapping
	if FromError(nil) != nil {
		t.Fatal("FromError(nil) != nil")
	}
	if got := FromError(context.DeadlineExceeded); got.Code != CodeTimeout {
		t.Fatalf("deadline maps to %q, want timeout", got.Code)
	}
	if got := FromError(context.Canceled); got.Code != CodeCanceled {
		t.Fatalf("cancel maps to %q, want canceled", got.Code)
	}
	if got := FromError(errors.New("boom")); got.Code != CodeInternal {
		t.Fatalf("opaque error maps to %q, want internal", got.Code)
	}
	if got := FromError(ae); got != ae {
		t.Fatal("typed error did not pass through FromError")
	}

	// HTTP status mapping
	statuses := map[Code]int{
		CodeInvalidArgument: http.StatusBadRequest,
		CodeNotFound:        http.StatusNotFound,
		CodeTimeout:         http.StatusGatewayTimeout,
		CodeCanceled:        499,
		CodeOverloaded:      http.StatusServiceUnavailable,
		CodeTooLarge:        http.StatusRequestEntityTooLarge,
		CodeInternal:        http.StatusInternalServerError,
		Code("mystery"):     http.StatusInternalServerError,
	}
	for code, want := range statuses {
		if got := (&Error{Code: code}).HTTPStatus(); got != want {
			t.Errorf("%s: status %d, want %d", code, got, want)
		}
	}

	// the wire envelope shape clients and tests rely on
	buf, _ := json.Marshal(ErrorResponse{Err: Error{Code: CodeTimeout, Message: "too slow"}})
	want := `{"error":{"code":"timeout","message":"too slow"}}`
	if string(buf) != want+"\n" && string(buf) != want {
		t.Fatalf("envelope %s, want %s", buf, want)
	}
}

func TestSpecDefaults(t *testing.T) {
	s := QuerySpec{}.WithDefaults()
	if s.Measure != DefaultMeasure || s.Algorithm != DefaultTopKAlgorithm {
		t.Fatalf("defaults %q/%q", s.Measure, s.Algorithm)
	}
	s = QuerySpec{Measure: "frechet", Algorithm: "exacts"}.WithDefaults()
	if s.Measure != "frechet" || s.Algorithm != "exacts" {
		t.Fatalf("explicit names overwritten: %q/%q", s.Measure, s.Algorithm)
	}
}

// TestAlgorithmTable pins the served algorithms (internal/server's
// TestUnservedNamesRejected checks that other names are refused).
func TestAlgorithmTable(t *testing.T) {
	if got, want := strings.Join(AlgorithmNames(), " "), "exacts sizes pss pos pos-d rls rls-skip embed"; got != want {
		t.Fatalf("AlgorithmNames() = %q, want %q", got, want)
	}
}

// TestStreamEventShape pins the NDJSON record discriminants: exactly one
// of match/summary/error is present per record.
func TestStreamEventShape(t *testing.T) {
	m := Match{TrajID: 3, Start: 1, End: 4, Dist: 0.5, Sim: 1 / 1.5}
	buf, _ := json.Marshal(StreamEvent{Match: &m})
	var ev StreamEvent
	if err := json.Unmarshal(buf, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Match == nil || ev.Summary != nil || ev.Error != nil {
		t.Fatalf("match record decoded as %+v", ev)
	}
	if *ev.Match != m {
		t.Fatalf("match round trip: %+v != %+v", *ev.Match, m)
	}
}
