//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides the subset this workspace uses: `channel` (multi-producer,
//! multi-consumer, unbounded *and* bounded, with `recv_timeout` and
//! non-blocking `try_send`/`try_recv`). Everything is built on
//! `std::sync` primitives; lock poisoning is swallowed (a
//! panicking peer must not poison an unrelated sender or receiver —
//! exactly the graceful-degradation posture the runtime wants).

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        /// `usize::MAX` encodes "unbounded".
        capacity: usize,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        /// Signalled when a message is enqueued or the last sender leaves.
        readable: Condvar,
        /// Signalled when a message is dequeued or the last receiver leaves.
        writable: Condvar,
    }

    fn lock<T>(shared: &Shared<T>) -> MutexGuard<'_, State<T>> {
        shared.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Error returned by [`Sender::send`]: the receivers are gone; the
    /// message comes back.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Sender::try_send`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is at capacity.
        Full(T),
        /// The receivers are gone.
        Disconnected(T),
    }

    /// Error returned by [`Receiver::recv`]: channel empty and all
    /// senders gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel currently empty.
        Empty,
        /// Channel empty and all senders gone.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// Channel empty and all senders gone.
        Disconnected,
    }

    /// The sending half of a channel. Clonable; the channel disconnects
    /// when the last clone drops.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel. Clonable (multi-consumer): each
    /// message is delivered to exactly one receiver.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(usize::MAX)
    }

    /// Creates a bounded channel holding at most `cap` queued messages.
    ///
    /// Unlike crossbeam, `cap = 0` is not a rendezvous channel; it is
    /// rounded up to 1.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(cap.max(1))
    }

    fn with_capacity<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                capacity,
                senders: 1,
                receivers: 1,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            lock(&self.shared).senders += 1;
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = lock(&self.shared);
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.shared.readable.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            lock(&self.shared).receivers += 1;
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = lock(&self.shared);
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                self.shared.writable.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Sends, blocking while the channel is full. Fails only when all
        /// receivers are gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = lock(&self.shared);
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                if st.queue.len() < st.capacity {
                    st.queue.push_back(msg);
                    drop(st);
                    self.shared.readable.notify_one();
                    return Ok(());
                }
                st = self
                    .shared
                    .writable
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Non-blocking send: fails fast when full or disconnected.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut st = lock(&self.shared);
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if st.queue.len() >= st.capacity {
                return Err(TrySendError::Full(msg));
            }
            st.queue.push_back(msg);
            drop(st);
            self.shared.readable.notify_one();
            Ok(())
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            lock(&self.shared).queue.len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        /// Receives, blocking until a message arrives or every sender is
        /// gone and the queue drains.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = lock(&self.shared);
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    drop(st);
                    self.shared.writable.notify_one();
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self
                    .shared
                    .readable
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Receives with a deadline of `timeout` from now.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = lock(&self.shared);
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    drop(st);
                    self.shared.writable.notify_one();
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _res) = self
                    .shared
                    .readable
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = lock(&self.shared);
            if let Some(msg) = st.queue.pop_front() {
                drop(st);
                self.shared.writable.notify_one();
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            lock(&self.shared).queue.len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel;
    use std::time::Duration;

    #[test]
    fn unbounded_send_recv_fifo() {
        let (tx, rx) = channel::unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let got: Vec<i32> = (0..10).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = channel::unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(channel::RecvTimeoutError::Timeout)
        );
        tx.send(7).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)), Ok(7));
    }

    #[test]
    fn disconnect_is_reported_after_drain() {
        let (tx, rx) = channel::unbounded();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(channel::RecvError));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(channel::RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn bounded_try_send_reports_full() {
        let (tx, rx) = channel::bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(
            tx.try_send(3),
            Err(channel::TrySendError::Full(3))
        ));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
    }

    #[test]
    fn cloned_receivers_share_the_stream() {
        let (tx, rx1) = channel::unbounded();
        let rx2 = rx1.clone();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let a = rx1.recv().unwrap();
        let b = rx2.recv().unwrap();
        let mut both = vec![a, b];
        both.sort_unstable();
        assert_eq!(both, vec![1, 2]);
    }

    #[test]
    fn send_fails_when_receivers_gone() {
        let (tx, rx) = channel::unbounded();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn blocking_send_unblocks_on_recv() {
        let (tx, rx) = channel::bounded(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || tx.send(2).unwrap());
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        t.join().unwrap();
    }
}
