package main

import (
	"reflect"
	"strings"
	"testing"
)

func testTagged() []bool {
	tagged := make([]bool, siteConfig.Pages*siteConfig.FragmentsPerPage)
	for j := range tagged {
		tagged[j] = j%4 != 3
	}
	return tagged
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		a, b := newStream(w, 42, 1), newStream(w, 42, 1)
		for i := 0; i < 1000; i++ {
			if ra, rb := a.next(), b.next(); ra != rb {
				t.Fatalf("%s: request %d differs: %v vs %v", w.Name, i, ra, rb)
			}
		}
		if x, y := streamSHA(w, 42, testTagged(), 512), streamSHA(w, 42, testTagged(), 512); x != y {
			t.Errorf("%s: same seed, different stream_sha", w.Name)
		}
		if x, y := streamSHA(w, 42, testTagged(), 512), streamSHA(w, 43, testTagged(), 512); x == y {
			t.Errorf("%s: different seeds, same stream_sha", w.Name)
		}
	}
}

func TestClientsDrawDifferentStreams(t *testing.T) {
	w := workloads[0]
	a, b := newStream(w, 42, 0), newStream(w, 42, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.next() == b.next() {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("both clients replay one stream")
	}
}

func TestWriteScheduleIsSeededAndTagged(t *testing.T) {
	tagged := testTagged()
	a, b, c := newWriteSchedule(42, tagged), newWriteSchedule(42, tagged), newWriteSchedule(43, tagged)
	differs := false
	for i := 0; i < 1000; i++ {
		ja, jb, jc := a.next(), b.next(), c.next()
		if ja != jb {
			t.Fatalf("write %d differs under one seed: %d vs %d", i, ja, jb)
		}
		if !tagged[ja] {
			t.Fatalf("write %d targets untagged fragment %d", i, ja)
		}
		differs = differs || ja != jc
	}
	if !differs {
		t.Fatal("two seeds gave one write schedule")
	}
}

func TestOnlyWriteMixCarriesUsers(t *testing.T) {
	for _, w := range workloads {
		s := newStream(w, 7, 0)
		users := 0
		for i := 0; i < 2000; i++ {
			if s.next().user != "" {
				users++
			}
		}
		if w.writes && (users < 800 || users > 1200) {
			t.Errorf("%s: %d of 2000 requests carry a user, want about half", w.Name, users)
		}
		if !w.writes && users != 0 {
			t.Errorf("%s: %d requests carry a user, want none", w.Name, users)
		}
	}
}

// The proxy is given the workload's flags and nothing else: the seed
// reaches it only as the requests it generates.
func TestDpcdFlags(t *testing.T) {
	want := map[string]string{
		"frag_hot":   "-capacity 16384 -store sharded",
		"page_hot":   "-capacity 16384 -store sharded -pagecache -pagecache-ttl 10m0s",
		"frag_spill": "-capacity 16384 -store tiered -evict lru -store-budget 1536000 -disk-path d/front.heap",
		"write_mix":  "-capacity 16384 -store sharded -pagecache -pagecache-ttl 10m0s -invalidate",
	}
	for _, w := range workloads {
		if got := strings.Join(w.dpcdFlags("d"), " "); got != want[w.Name] {
			t.Errorf("%s flags:\n got %s\nwant %s", w.Name, got, want[w.Name])
		}
	}
	typ := reflect.TypeOf(workloadSpec.dpcdFlags)
	if typ.NumIn() != 2 || typ.In(1).Kind() != reflect.String {
		t.Errorf("dpcdFlags takes %v; it must take the heap-file directory and no seed", typ)
	}
}
