// Fixture: mailbox filters. A `_ =>` arm inside a match on `peek` or
// `try_recv_where` is the filter's "leave it queued" answer, not a
// hole in a protocol dispatch, so it is exempt from `proto-wildcard`.

pub enum Mail {
    Hello,
    Bye,
}

pub fn wants_hello(e: &Envelope) -> bool {
    match e.peek::<Mail>() {
        Some(Mail::Hello) => true,
        _ => false,
    }
}

pub fn take_bye(inbox: &mut Inbox) -> u32 {
    match inbox.try_recv_where(|e| e.is::<Mail>()) {
        Some(Mail::Bye) => 1,
        _ => 0,
    }
}

pub fn handle(m: Mail) -> u32 {
    match m {
        Mail::Hello => 1,
        Mail::Bye => 2,
    }
}
