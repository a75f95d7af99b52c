//! Accounts and browser sessions.
//!
//! Students only need a web browser (§II-B); sessions are bearer
//! tokens minted at login. Password hashing is a salted FNV — fine for
//! a simulation, clearly **not** a production KDF, and isolated here so
//! swapping it would be a one-line change.

use crate::state::{DeviceKind, LoginRec, Role, ServerState, UserRec};
use std::collections::HashMap;
use wb_obs::sync::RwLock;

/// An authenticated session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// Bearer token.
    pub token: u64,
    /// Logged-in user name.
    pub user: String,
    /// Role at login.
    pub role: Role,
}

/// Session manager over the user table.
#[derive(Default)]
pub struct Sessions {
    live: RwLock<HashMap<u64, Session>>,
    counter: RwLock<u64>,
}

/// Authentication errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthError {
    /// Unknown user or wrong password (indistinguishable on purpose).
    BadCredentials,
    /// Token not recognized (expired or forged).
    BadToken,
    /// The user exists already (registration).
    UserExists,
    /// Operation requires the instructor role.
    NotInstructor,
}

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthError::BadCredentials => write!(f, "invalid user name or password"),
            AuthError::BadToken => write!(f, "session expired or invalid"),
            AuthError::UserExists => write!(f, "user already exists"),
            AuthError::NotInstructor => write!(f, "instructor access required"),
        }
    }
}

impl Sessions {
    /// Fresh manager.
    pub fn new() -> Self {
        Sessions::default()
    }

    /// Register a user. Anyone may sign up (the paper notes this is
    /// exactly why the cluster-sharing model fails, §III).
    pub fn register(
        &self,
        state: &ServerState,
        name: &str,
        password: &str,
        role: Role,
    ) -> Result<(), AuthError> {
        if !state
            .users
            .find("by_name", name)
            .unwrap_or_default()
            .is_empty()
        {
            return Err(AuthError::UserExists);
        }
        state
            .users
            .insert(&UserRec {
                name: name.to_string(),
                pass_hash: hash_password(name, password),
                role,
                email: format!("{name}@students.example.edu"),
            })
            .map_err(|_| AuthError::UserExists)?;
        Ok(())
    }

    /// Log in, recording the device kind for the login-mix statistic.
    pub fn login(
        &self,
        state: &ServerState,
        name: &str,
        password: &str,
        device: DeviceKind,
        now_ms: u64,
    ) -> Result<Session, AuthError> {
        let ids = state
            .users
            .find("by_name", name)
            .map_err(|_| AuthError::BadCredentials)?;
        let id = *ids.first().ok_or(AuthError::BadCredentials)?;
        let user = state.users.get(id).map_err(|_| AuthError::BadCredentials)?;
        if user.pass_hash != hash_password(name, password) {
            return Err(AuthError::BadCredentials);
        }
        state
            .logins
            .insert(&LoginRec {
                user: name.to_string(),
                device,
                at_ms: now_ms,
            })
            .ok();
        let mut counter = self.counter.write();
        *counter += 1;
        // Token mixes a counter with the user hash: unique and
        // unguessable enough for the simulation.
        let token = (*counter << 20) ^ hash_password(name, "token-salt");
        let session = Session {
            token,
            user: name.to_string(),
            role: user.role,
        };
        self.live.write().insert(token, session.clone());
        Ok(session)
    }

    /// Resolve a bearer token.
    pub fn authenticate(&self, token: u64) -> Result<Session, AuthError> {
        self.live
            .read()
            .get(&token)
            .cloned()
            .ok_or(AuthError::BadToken)
    }

    /// Resolve a token and require the instructor role.
    pub fn authenticate_instructor(&self, token: u64) -> Result<Session, AuthError> {
        let s = self.authenticate(token)?;
        if s.role != Role::Instructor {
            return Err(AuthError::NotInstructor);
        }
        Ok(s)
    }

    /// Invalidate a session: the browser-only client of §II-B holds
    /// nothing but this bearer token, so ending it ends the login.
    pub fn logout(&self, token: u64) {
        self.live.write().remove(&token);
    }
}

fn hash_password(name: &str, password: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes().chain([0u8]).chain(password.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Sessions {
        /// Number of live sessions.
        fn live_count(&self) -> usize {
            self.live.read().len()
        }
    }

    fn setup() -> (ServerState, Sessions) {
        let st = ServerState::new();
        let s = Sessions::new();
        s.register(&st, "alice", "hunter2", Role::Student).unwrap();
        s.register(&st, "prof", "tenure", Role::Instructor).unwrap();
        (st, s)
    }

    #[test]
    fn register_login_authenticate() {
        let (st, s) = setup();
        let sess = s
            .login(&st, "alice", "hunter2", DeviceKind::Desktop, 0)
            .unwrap();
        let back = s.authenticate(sess.token).unwrap();
        assert_eq!(back.user, "alice");
        assert_eq!(back.role, Role::Student);
    }

    #[test]
    fn wrong_password_rejected() {
        let (st, s) = setup();
        assert_eq!(
            s.login(&st, "alice", "wrong", DeviceKind::Desktop, 0),
            Err(AuthError::BadCredentials)
        );
        assert_eq!(
            s.login(&st, "nobody", "x", DeviceKind::Desktop, 0),
            Err(AuthError::BadCredentials)
        );
    }

    #[test]
    fn duplicate_registration_rejected() {
        let (st, s) = setup();
        assert_eq!(
            s.register(&st, "alice", "again", Role::Student),
            Err(AuthError::UserExists)
        );
    }

    #[test]
    fn logout_invalidates() {
        let (st, s) = setup();
        let sess = s
            .login(&st, "alice", "hunter2", DeviceKind::Phone, 0)
            .unwrap();
        assert_eq!(s.live_count(), 1);
        s.logout(sess.token);
        assert_eq!(s.authenticate(sess.token), Err(AuthError::BadToken));
        assert_eq!(s.live_count(), 0);
    }

    #[test]
    fn instructor_gate() {
        let (st, s) = setup();
        let student = s
            .login(&st, "alice", "hunter2", DeviceKind::Desktop, 0)
            .unwrap();
        let staff = s
            .login(&st, "prof", "tenure", DeviceKind::Desktop, 0)
            .unwrap();
        assert_eq!(
            s.authenticate_instructor(student.token),
            Err(AuthError::NotInstructor)
        );
        assert!(s.authenticate_instructor(staff.token).is_ok());
    }

    #[test]
    fn logins_recorded_with_device() {
        let (st, s) = setup();
        s.login(&st, "alice", "hunter2", DeviceKind::Tablet, 5)
            .unwrap();
        s.login(&st, "alice", "hunter2", DeviceKind::Desktop, 6)
            .unwrap();
        let logins = st.logins.find("by_user", "alice").unwrap();
        assert_eq!(logins.len(), 2);
        assert!(st.mobile_login_fraction() > 0.0);
    }

    #[test]
    fn tokens_are_unique() {
        let (st, s) = setup();
        let a = s
            .login(&st, "alice", "hunter2", DeviceKind::Desktop, 0)
            .unwrap();
        let b = s
            .login(&st, "alice", "hunter2", DeviceKind::Desktop, 1)
            .unwrap();
        assert_ne!(a.token, b.token);
    }
}
