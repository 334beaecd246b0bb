//! Offline stand-in for `crossbeam`: `channel` over `std::sync::mpsc`. A
//! unified `Sender` covers both bounded and unbounded flavors (mpsc splits
//! them into two types).

pub mod channel {
    //! MPMC-flavored channel API over std's MPSC channels. The workspace
    //! only ever receives from one consumer per channel, so MPSC suffices;
    //! `Receiver` is protected by a mutex to stay `Sync` like crossbeam's.

    use std::sync::mpsc;
    use std::sync::{Arc, Mutex, PoisonError};
    use std::time::Duration;

    /// Error returned by `send` on a disconnected channel (payload returned).
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // Like the real crate: Debug without a `T: Debug` bound, so `.expect`
    // works on channels of non-Debug payloads.
    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by `recv` on an empty, disconnected channel.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by `try_recv`.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel currently empty.
        Empty,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    /// Error returned by `recv_timeout`.
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message within the deadline.
        Timeout,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    enum Tx<T> {
        Unbounded(mpsc::Sender<T>),
        Bounded(mpsc::SyncSender<T>),
    }

    impl<T> Clone for Tx<T> {
        fn clone(&self) -> Self {
            match self {
                Tx::Unbounded(s) => Tx::Unbounded(s.clone()),
                Tx::Bounded(s) => Tx::Bounded(s.clone()),
            }
        }
    }

    /// Sending half; clonable.
    pub struct Sender<T>(Tx<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Send `value`, blocking on a full bounded channel. Errors only if
        /// every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            match &self.0 {
                Tx::Unbounded(s) => s.send(value).map_err(|e| SendError(e.0)),
                Tx::Bounded(s) => s.send(value).map_err(|e| SendError(e.0)),
            }
        }
    }

    /// Receiving half; clonable (receivers share the queue).
    pub struct Receiver<T>(Arc<Mutex<mpsc::Receiver<T>>>);

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Receiver<T> {
        fn inner(&self) -> std::sync::MutexGuard<'_, mpsc::Receiver<T>> {
            self.0.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Block until a message arrives or all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner().recv().map_err(|_| RecvError)
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.inner().try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }

        /// Receive with a deadline.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.inner().recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }

        /// Blocking iterator that ends when all senders are gone.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }

        /// Non-blocking iterator draining currently queued messages.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { rx: self }
        }
    }

    /// Blocking iterator over received messages.
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    /// Non-blocking drain iterator.
    pub struct TryIter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.try_recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }

    /// Channel with unlimited buffering.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(Tx::Unbounded(tx)), Receiver(Arc::new(Mutex::new(rx))))
    }

    /// Channel holding at most `cap` queued messages (`send` blocks beyond).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(Tx::Bounded(tx)), Receiver(Arc::new(Mutex::new(rx))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channels_roundtrip() {
        let (tx, rx) = channel::unbounded::<u32>();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop((tx, tx2));
        let got: Vec<u32> = rx.iter().collect();
        assert_eq!(got, vec![1, 2]);
        assert_eq!(rx.recv(), Err(channel::RecvError));
    }

    #[test]
    fn bounded_capacity_respected() {
        let (tx, rx) = channel::bounded::<u32>(1);
        tx.send(7).unwrap();
        assert_eq!(rx.try_recv(), Ok(7));
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Empty));
    }
}
