package cdncache

import (
	"bytes"
	"testing"

	"interedge/internal/control"
	"interedge/internal/lab"
	"interedge/internal/wire"
)

func newWorld(t *testing.T, capacity int) (*lab.Topology, *lab.Edomain, *Module) {
	t.Helper()
	topo := lab.New()
	mod := New(capacity)
	ed, err := topo.AddEdomain("ed-a", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ed.SNs[0].Register(mod); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(topo.Close)
	return topo, ed, mod
}

func publish(t *testing.T, topo *lab.Topology, ed *lab.Edomain, name string, origin wire.Addr) {
	t.Helper()
	h, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpPublish.CallFirstHop(h, PublishArgs{Name: name, Origin: origin}); err != nil {
		t.Fatal(err)
	}
}

func TestMissFetchesFromOriginThenHits(t *testing.T) {
	topo, ed, mod := newWorld(t, 1<<20)
	origin, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("hello, cached world")
	ServeOrigin(origin, map[string][]byte{"index.html": content})
	publish(t, topo, ed, "index.html", origin.Addr())

	client, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(client)
	got, err := c.Get("index.html")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("content %q", got)
	}
	st := mod.Stats()
	if st.Misses != 1 || st.OriginFetches != 1 || st.Hits != 0 {
		t.Fatalf("stats after miss: %+v", st)
	}
	// Second fetch: served from cache.
	got2, err := c.Get("index.html")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, content) {
		t.Fatalf("content %q", got2)
	}
	st = mod.Stats()
	if st.Hits != 1 || st.OriginFetches != 1 {
		t.Fatalf("stats after hit: %+v", st)
	}
}

func TestLargeContentChunked(t *testing.T) {
	topo, ed, _ := newWorld(t, 1<<20)
	origin, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 5*ChunkSize+123)
	for i := range content {
		content[i] = byte(i * 31)
	}
	ServeOrigin(origin, map[string][]byte{"video.bin": content})
	publish(t, topo, ed, "video.bin", origin.Addr())
	client, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewClient(client).Get("video.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("chunked content mismatch: %d vs %d bytes", len(got), len(content))
	}
}

func TestUnknownContentMiss(t *testing.T) {
	topo, ed, _ := newWorld(t, 1<<20)
	client, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(client).Get("ghost"); err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestLRUEvictionUnderByteBudget(t *testing.T) {
	// Capacity of 2.5 objects.
	topo, ed, mod := newWorld(t, 2500)
	origin, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	contents := map[string][]byte{
		"a": bytes.Repeat([]byte("a"), 1000),
		"b": bytes.Repeat([]byte("b"), 1000),
		"c": bytes.Repeat([]byte("c"), 1000),
	}
	ServeOrigin(origin, contents)
	for name := range contents {
		publish(t, topo, ed, name, origin.Addr())
	}
	client, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(client)
	for _, name := range []string{"a", "b", "c"} {
		if _, err := c.Get(name); err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
	}
	// a (least recently used) must have been evicted; b and c retained.
	if mod.Contains("a") {
		t.Fatal("LRU victim still cached")
	}
	if !mod.Contains("b") || !mod.Contains("c") {
		t.Fatal("recent objects evicted")
	}
	if st := mod.Stats(); st.BytesCached > 2500 {
		t.Fatalf("cache over budget: %d", st.BytesCached)
	}
}

func TestOversizedObjectServedButNotCached(t *testing.T) {
	topo, ed, mod := newWorld(t, 100)
	origin, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 1000)
	ServeOrigin(origin, map[string][]byte{"big": big})
	publish(t, topo, ed, "big", origin.Addr())
	client, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewClient(client).Get("big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("content mismatch")
	}
	if mod.Contains("big") {
		t.Fatal("oversized object cached")
	}
}

func TestStatsControlOp(t *testing.T) {
	topo, ed, _ := newWorld(t, 1000)
	h, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := OpStats.CallFirstHop(h, control.None{})
	if err != nil {
		t.Fatal(err)
	}
	if stats != (Stats{}) {
		t.Fatalf("stats of an unused cache = %+v", stats)
	}
}
