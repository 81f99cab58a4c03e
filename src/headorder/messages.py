"""Error-message text shared by every module; imports nothing from the package."""


def clip(text: str) -> str:
    """Outside text as an error message repeats it: past 40 characters, its middle goes."""
    return text if len(text) <= 40 else f"{text[:30]}...{text[-7:]}"
