package kv

import (
	"container/list"
	"sync"
)

// blockCache is a sharded-nothing LRU cache of decompressed data blocks,
// the stand-in for HBase's block cache. Capacity is in bytes.
type blockCache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	ll       *list.List
	items    map[cacheKey]*list.Element
	loading  map[cacheKey]*blockLoad // misses being read from disk
}

// blockLoad is one in-flight block read that concurrent misses on the
// same block wait for instead of reading the block again.
type blockLoad struct {
	done chan struct{}
	data []byte
	err  error
}

type cacheKey struct {
	table uint64
	block int
}

type cacheEntry struct {
	key  cacheKey
	data []byte
}

func newBlockCache(capacity int64) *blockCache {
	if capacity <= 0 {
		return nil
	}
	return &blockCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[cacheKey]*list.Element),
		loading:  make(map[cacheKey]*blockLoad),
	}
}

func (c *blockCache) get(table uint64, block int) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[cacheKey{table, block}]; ok {
		c.ll.MoveToFront(e)
		return e.Value.(*cacheEntry).data, true
	}
	return nil, false
}

// load fills a missed block with read, once for all concurrent
// callers: the first caller reads and caches it, the others wait and
// share the result (shared reports that). A failed read is not shared —
// each waiter then reads for itself, as it would have without the
// cache, so a transient fault stays one caller's fault.
func (c *blockCache) load(table uint64, block int, read func() ([]byte, error)) (data []byte, shared bool, err error) {
	k := cacheKey{table, block}
	for {
		c.mu.Lock()
		if e, ok := c.items[k]; ok {
			c.ll.MoveToFront(e)
			c.mu.Unlock()
			return e.Value.(*cacheEntry).data, true, nil
		}
		l, waiting := c.loading[k]
		if !waiting {
			l = &blockLoad{done: make(chan struct{})}
			c.loading[k] = l
		}
		c.mu.Unlock()
		if waiting {
			<-l.done
			if l.err == nil {
				return l.data, true, nil
			}
			continue
		}
		l.data, l.err = read()
		c.mu.Lock()
		delete(c.loading, k)
		if l.err == nil {
			c.putLocked(k, l.data)
		}
		c.mu.Unlock()
		close(l.done)
		return l.data, false, l.err
	}
}

// put inserts a block. data must be the decompressed buffer (loadBlock
// inflates before caching), so used tracks resident memory, not the
// smaller on-disk size — capacity would otherwise overcommit by the
// compression ratio.
func (c *blockCache) put(table uint64, block int, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(cacheKey{table, block}, data)
}

func (c *blockCache) putLocked(k cacheKey, data []byte) {
	if e, ok := c.items[k]; ok {
		c.ll.MoveToFront(e)
		old := e.Value.(*cacheEntry)
		c.used += int64(len(data) - len(old.data))
		old.data = data
	} else {
		e := c.ll.PushFront(&cacheEntry{key: k, data: data})
		c.items[k] = e
		c.used += int64(len(data))
	}
	for c.used > c.capacity && c.ll.Len() > 0 {
		back := c.ll.Back()
		entry := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, entry.key)
		c.used -= int64(len(entry.data))
	}
}

// len returns the number of cached blocks (for tests).
func (c *blockCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
