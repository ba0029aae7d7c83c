package fragstore

// TieredPut and TieredGet are the tiered store's write and read paths — the
// fragment view's, by engine key — and TieredRAM its RAM tier, for the
// package's external tests.
func TieredPut(t *TieredKeyed, key string, e KeyedEntry) { t.put(key, e) }

func TieredGet(t *TieredKeyed, key string) (KeyedEntry, bool) {
	e, ok, _ := t.read(key, nil)
	return e, ok
}

func TieredRAM(t *TieredKeyed) *KeyedStore { return t.ram }
