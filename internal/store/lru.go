package store

import "container/list"

// lru is the one recency index both tiers share: keys in
// least-recently-used order with a byte total held against a budget.
// It does no locking and no I/O; its owner holds a lock around every
// call and acts on what put evicts (deleting a file, telling a
// caller).
type lru[V any] struct {
	budget int64 // <= 0 means unlimited
	used   int64
	ll     *list.List // *lruEntry[V], front = most recently used
	items  map[string]*list.Element
}

type lruEntry[V any] struct {
	key  string
	val  V
	size int64
}

func newLRU[V any](budget int64) *lru[V] {
	return &lru[V]{budget: budget, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns a key's value and marks it most recently used.
func (l *lru[V]) get(key string) (val V, ok bool) {
	if el, ok := l.items[key]; ok {
		l.ll.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val, true
	}
	return val, false
}

// put inserts or replaces a key as the most recently used entry, then
// evicts least-recently-used entries until the total fits the budget,
// never evicting the entry just put. A value larger than the whole
// budget is refused (ok false, nothing changes): it would evict
// everything and still break the bound.
func (l *lru[V]) put(key string, val V, size int64) (evicted []lruEntry[V], ok bool) {
	if l.budget > 0 && size > l.budget {
		return nil, false
	}
	if el, ok := l.items[key]; ok {
		ent := el.Value.(*lruEntry[V])
		l.used += size - ent.size
		ent.val, ent.size = val, size
		l.ll.MoveToFront(el)
	} else {
		l.items[key] = l.ll.PushFront(&lruEntry[V]{key: key, val: val, size: size})
		l.used += size
	}
	for l.budget > 0 && l.used > l.budget && l.ll.Len() > 1 {
		ent := *l.ll.Back().Value.(*lruEntry[V])
		l.remove(ent.key)
		evicted = append(evicted, ent)
	}
	return evicted, true
}

// remove deletes a key if present.
func (l *lru[V]) remove(key string) {
	if el, ok := l.items[key]; ok {
		l.ll.Remove(el)
		delete(l.items, key)
		l.used -= el.Value.(*lruEntry[V]).size
	}
}
