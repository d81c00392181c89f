package buffer

// frameList is a doubly linked list of small integer slots — buffer frames,
// or 2Q's ghost entries — threaded through a slot-indexed link table, with
// -1 at either end. The front is the most recently pushed end. The table
// grows (by extend) when a slot is first pushed and is kept across reset,
// so steady-state use allocates nothing. The zero value is an empty list.
type frameList struct {
	links       []link
	front, back int32 // meaningful only when len > 0
	len         int
}

type link struct{ prev, next int32 }

func (l *frameList) reset() { l.len = 0 }

func (l *frameList) grow(s int32) {
	if int(s) >= len(l.links) {
		l.links = extend(l.links, int(s)+1)
	}
}

func (l *frameList) pushFront(s int32) {
	l.grow(s)
	if l.len == 0 {
		l.links[s] = link{-1, -1}
		l.back = s
	} else {
		l.links[s] = link{-1, l.front}
		l.links[l.front].prev = s
	}
	l.front = s
	l.len++
}

func (l *frameList) pushBack(s int32) {
	l.grow(s)
	if l.len == 0 {
		l.links[s] = link{-1, -1}
		l.front = s
	} else {
		l.links[s] = link{l.back, -1}
		l.links[l.back].next = s
	}
	l.back = s
	l.len++
}

func (l *frameList) remove(s int32) {
	k := l.links[s]
	if k.prev < 0 {
		l.front = k.next
	} else {
		l.links[k.prev].next = k.next
	}
	if k.next < 0 {
		l.back = k.prev
	} else {
		l.links[k.next].prev = k.prev
	}
	l.len--
}

func (l *frameList) moveToFront(s int32) {
	if l.front != s {
		l.remove(s)
		l.pushFront(s)
	}
}

// popBack removes and returns the back slot; the list must not be empty.
func (l *frameList) popBack() int32 {
	s := l.back
	l.remove(s)
	return s
}
