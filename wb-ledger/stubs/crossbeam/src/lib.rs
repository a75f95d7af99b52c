//! Offline stand-in for `crossbeam` 0.8: scoped threads over
//! `std::thread::scope` and an unbounded channel over `std::sync::mpsc`.

pub mod thread {
    use std::any::Any;
    use std::io;
    pub use std::thread::ScopedJoinHandle;

    #[derive(Clone, Copy)]
    pub struct Scope<'scope, 'env: 'scope>(&'scope std::thread::Scope<'scope, 'env>);

    /// Runs `f`, joining every thread it spawned before returning. A
    /// panicking child propagates out of `std::thread::scope` as a panic
    /// where crossbeam returns `Err`; every caller here `expect`s the
    /// result, so both end the same way.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope(s))))
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let me = *self;
            self.0.spawn(move || f(&me))
        }

        pub fn builder(&self) -> ScopedThreadBuilder<'scope, 'env> {
            ScopedThreadBuilder {
                scope: *self,
                builder: std::thread::Builder::new(),
            }
        }
    }

    pub struct ScopedThreadBuilder<'scope, 'env: 'scope> {
        scope: Scope<'scope, 'env>,
        builder: std::thread::Builder,
    }

    impl<'scope, 'env> ScopedThreadBuilder<'scope, 'env> {
        pub fn stack_size(mut self, size: usize) -> Self {
            self.builder = self.builder.stack_size(size);
            self
        }

        pub fn name(mut self, name: String) -> Self {
            self.builder = self.builder.name(name);
            self
        }

        pub fn spawn<F, T>(self, f: F) -> io::Result<ScopedJoinHandle<'scope, T>>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let me = self.scope;
            self.builder.spawn_scoped(me.0, move || f(&me))
        }
    }
}

pub mod channel {
    use std::sync::mpsc;
    pub use std::sync::mpsc::{RecvError, SendError};
    use std::sync::{Mutex, PoisonError};

    #[derive(Debug)]
    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    /// The mutex makes the receiver `Sync`, as crossbeam's is.
    #[derive(Debug)]
    pub struct Receiver<T>(Mutex<mpsc::Receiver<T>>);

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(Mutex::new(rx)))
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value)
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.lock().unwrap_or_else(PoisonError::into_inner).recv()
        }
    }
}
