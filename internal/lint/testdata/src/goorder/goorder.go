// Package goorder exercises the goorder rule: goroutine results must be
// merged index-addressed or sorted, never by scheduling order.
package goorder

import (
	"sort"
	"sync"
)

// Shared-slice append from a go-launched literal: element order is
// goroutine scheduling order even under the mutex.
func sharedAppend(items []int) []int {
	var out []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, it := range items {
		it := it
		wg.Add(1)
		go func() { // want:goorder "shared slice out"
			defer wg.Done()
			mu.Lock()
			out = append(out, it*2)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// Channel-receive merge in a counted loop: receive order is
// send-completion order.
func receiveMerge(ch chan int, n int) []int {
	var out []int
	for i := 0; i < n; i++ { // want:goorder "channel-receive order"
		v := <-ch
		out = append(out, v)
	}
	return out
}

// Range-over-channel merge: same defect, range form.
func rangeMerge(ch chan string) []string {
	var got []string
	for v := range ch { // want:goorder "merged into got"
		got = append(got, v)
	}
	return got
}

// Index-addressed slots are the blessed discipline (sim.Sharded's
// per-domain outboxes): clean.
func indexed(items []int) []int {
	out := make([]int, len(items))
	var wg sync.WaitGroup
	for i, it := range items {
		i, it := i, it
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = it * 2
		}()
	}
	wg.Wait()
	return out
}

// Collect-then-sort launders the receive order: clean.
func sortedMerge(ch chan int, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, <-ch)
	}
	sort.Ints(out)
	return out
}

// A goroutine appending to its own local slice owns the order: clean.
func localAppend(ch chan []int) {
	go func() {
		var local []int
		local = append(local, 1, 2, 3)
		ch <- local
	}()
}

// post models a cross-shard message handed over at a window barrier.
type post struct {
	from int
	at   int64
}

// Draining a window barrier's mailbox by channel-receive order: whichever
// shard worker closes its window first lands first, so the merged delivery
// order is scheduling order, not the (sender, seq) contract.
func mailboxReceiveMerge(done chan post, shards int) []post {
	var mailbox []post
	for i := 0; i < shards; i++ { // want:goorder "channel-receive order"
		mailbox = append(mailbox, <-done)
	}
	return mailbox
}

// Shard workers posting straight into a shared mailbox: even under the
// lock, the mailbox order is whichever window finished first.
func mailboxSharedAppend(posts [][]post, shards int) []post {
	var mailbox []post
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		s := s
		wg.Add(1)
		go func() { // want:goorder "shared slice mailbox"
			defer wg.Done()
			mu.Lock()
			mailbox = append(mailbox, posts[s]...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return mailbox
}

// The sharded exchange discipline: each worker fills a local outbox, parks
// it in its own index-addressed slot, and the barrier drains the slots in
// sender order — the merge order is the domain order, independent of
// goroutine scheduling. Clean.
func mailboxExchange(posts [][]post, shards int) []post {
	outbox := make([][]post, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []post
			local = append(local, posts[s]...)
			outbox[s] = local
		}()
	}
	wg.Wait()
	var merged []post
	for from := 0; from < shards; from++ {
		merged = append(merged, outbox[from]...)
	}
	return merged
}
