package origin

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"dpcache/internal/bem"
	"dpcache/internal/coherency"
	"dpcache/internal/repository"
)

// A server with a monitor serves its hub's stream; one without serves none.
// Polls are not page requests: they are not counted in origin.requests and
// do not pass the fault injector, which here fails every page. A write to a
// row a page read reaches the stream as an event.
func TestEventStreamIsNotAPage(t *testing.T) {
	mon, err := bem.New(bem.Config{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	repo := testRepo()
	mon.BindRepo(repo)
	srv, err := New(Config{Repo: repo, Monitor: mon, Faults: NewFaultInjector(FaultConfig{ErrorRate: 1})})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(catalogScript()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if resp, _ := get(t, ts.URL+"/page/catalog", nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("the injector let a page through: %d", resp.StatusCode)
	}
	url := ts.URL + coherency.EventsPath
	a, err := coherency.Poll(context.Background(), ts.Client(), url, coherency.Cursor{})
	if err != nil || a.Gap || a.Seq != 0 {
		t.Fatalf("join: %+v, %v", a, err)
	}

	// A page read past the injector, then a write to its row: the write
	// returns once the puller, polling below, acks its event.
	req := httptest.NewRequest(http.MethodGet, "/page/catalog?categoryID=fiction", nil)
	req.Header.Set(HeaderCapable, "1")
	rec := httptest.NewRecorder()
	srv.servePage(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("page: %d", rec.Code)
	}
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		repo.Put(repository.Key{Table: "cat", Row: "fiction"}, map[string]string{"title": "Fiction, new"})
	}()
	c := coherency.Cursor{Inc: a.Inc, Sub: a.Sub, After: a.Seq}
	for a.Seq == 0 {
		if a, err = coherency.Poll(context.Background(), ts.Client(), url, c); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.Events) == 0 || a.Events[0].Kind != coherency.KindFragment || a.Events[0].Reason != string(bem.ReasonData) {
		t.Fatalf("the write's answer: %+v", a)
	}
	c.After = a.Seq
	go func() { _, _ = coherency.Poll(context.Background(), ts.Client(), url, c) }()
	<-wrote

	snap := srv.reg.Snapshot()
	if n := snap["origin.requests"]; n != 1 {
		t.Fatalf("origin.requests = %d, want the one page", n)
	}
	if n := snap["origin.fault_errors"]; n != 1 {
		t.Fatalf("origin.fault_errors = %d, want the one page", n)
	}
	resp, body := get(t, ts.URL+"/stats", nil)
	var stats struct {
		Fabric coherency.HubStats `json:"fabric"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatal(resp.StatusCode, err)
	}
	if stats.Fabric.Pullers != 1 || stats.Fabric.Seq == 0 || stats.Fabric.Incarnation != a.Inc {
		t.Fatalf("/stats fabric section: %+v", stats.Fabric)
	}

	plain, err := New(Config{Repo: repository.New(repository.LatencyModel{})})
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	plain.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, coherency.EventsPath, nil))
	if rec.Code != http.StatusNotFound || plain.Hub() != nil {
		t.Fatalf("a server without a monitor answered the stream %d", rec.Code)
	}
}
